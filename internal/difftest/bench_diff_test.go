package difftest

import (
	"testing"

	"metajit/internal/bench"
	"metajit/internal/harness"
)

// benchCells is the cell set used for the real benchmark
// suite: the full matrix over every benchmark would take minutes, and
// the random corpus already covers the ablation cells, so the suite is
// cross-checked under the configurations that differ most structurally
// — no JIT, the production thresholds, aggressive thresholds (maximum
// tracing, bridging, and deopt traffic), and both tier-1 shapes
// (baseline-only and the production tiered configuration every warmup
// number in results.txt comes from).
func benchCells() []Cell {
	return []Cell{
		interp,
		{Name: "jit-default", VM: harness.VMPyPyJIT},
		hot("jit-hot", nil),
		{Name: "tier1-only", VM: harness.VMPyPyTiered, Opt: harness.Options{
			BaselineThreshold: 2, Threshold: unreachable}},
		{Name: "tiered-default", VM: harness.VMPyPyTiered, Opt: harness.Options{
			BaselineThreshold: 6}},
	}
}

// TestBenchDifferential runs every benchmark program (both guests)
// through the differential oracle: all configurations must agree on
// result, heap checksum, output, and guest error, with every
// cross-layer invariant holding along the way.
func TestBenchDifferential(t *testing.T) {
	for _, p := range bench.All() {
		p := p
		t.Run(p.Name+"/py", func(t *testing.T) {
			t.Parallel()
			if _, err := RunCells(p.Source, false, benchCells()); err != nil {
				t.Fatal(err)
			}
		})
		if p.SkSource == "" {
			continue
		}
		t.Run(p.Name+"/sk", func(t *testing.T) {
			t.Parallel()
			if _, err := RunCells(p.SkSource, true, benchCells()); err != nil {
				t.Fatal(err)
			}
		})
	}
}
