package difftest

import (
	"math"
	"reflect"
	"testing"

	"metajit/internal/bench"
	"metajit/internal/harness"
)

// adaptiveCell is the adaptive-hot matrix cell, looked up by name so the
// determinism test always exercises exactly the advertised configuration.
func adaptiveCell(t *testing.T) Cell {
	t.Helper()
	for _, c := range Matrix() {
		if c.Name == "adaptive-hot" {
			return c
		}
	}
	t.Fatal("matrix has no adaptive-hot cell")
	return Cell{}
}

// TestControllerDeterministic pins the tier controller's determinism
// contract: adaptive promotion decisions are a pure function of
// per-engine observed event streams, so repeated runs — and runs
// scheduled on worker pools of different widths — must be bit-identical.
// Record/replay bit-exactness for the adaptive kinds is covered
// separately by TestRecordReplayEquivalence.
func TestControllerDeterministic(t *testing.T) {
	// Same source, same config, fresh VM each time: every observable —
	// including the engine stat counters the controller feeds on — must
	// repeat exactly.
	cfg := adaptiveCell(t)
	src := GenPylang(seedBytes(7))
	a, err := RunCell(src, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCell(src, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum != b.Checksum || a.Heap != b.Heap || a.Output != b.Output || a.Err != b.Err {
		t.Errorf("adaptive rerun diverged:\n  first:  %s\n  second: %s", a, b)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Errorf("adaptive rerun produced different engine stats:\n  first:  %+v\n  second: %+v",
			a.Stats, b.Stats)
	}

	// Worker-pool width must not leak into results: -j1 and -j4 runners
	// simulate the same cells bit-identically (cells share no state, and
	// the controller reads only its own engine's history).
	short := map[string]bool{"telco": true, "nbody": true, "richards": true}
	seq := harness.NewRunner(1)
	par := harness.NewRunner(4)
	for _, p := range bench.All() {
		p := p
		if testing.Short() && !short[p.Name] {
			continue
		}
		for _, kind := range []harness.VMKind{harness.VMPyPyAmalg, harness.VMPyPyAdaptive} {
			par.Prefetch(&p, kind, harness.Options{})
		}
	}
	for _, p := range bench.All() {
		p := p
		if testing.Short() && !short[p.Name] {
			continue
		}
		for _, kind := range []harness.VMKind{harness.VMPyPyAmalg, harness.VMPyPyAdaptive} {
			rs, err := seq.Get(&p, kind, harness.Options{})
			if err != nil {
				t.Fatalf("%s/%s sequential: %v", p.Name, kind, err)
			}
			rp, err := par.Get(&p, kind, harness.Options{})
			if err != nil {
				t.Fatalf("%s/%s parallel: %v", p.Name, kind, err)
			}
			if rs.Checksum != rp.Checksum || rs.HeapChecksum != rp.HeapChecksum {
				t.Errorf("%s/%s: checksum differs between -j1 and -j4 (%d/%#x vs %d/%#x)",
					p.Name, kind, rs.Checksum, rs.HeapChecksum, rp.Checksum, rp.HeapChecksum)
			}
			if rs.Instrs != rp.Instrs || rs.Bytecodes != rp.Bytecodes ||
				math.Float64bits(rs.Cycles) != math.Float64bits(rp.Cycles) {
				t.Errorf("%s/%s: counters differ between -j1 and -j4 (instrs %d vs %d, bytecodes %d vs %d, cycles %x vs %x)",
					p.Name, kind, rs.Instrs, rp.Instrs, rs.Bytecodes, rp.Bytecodes,
					math.Float64bits(rs.Cycles), math.Float64bits(rp.Cycles))
			}
			if !reflect.DeepEqual(rs.EngStats, rp.EngStats) {
				t.Errorf("%s/%s: engine stats differ between -j1 and -j4:\n  -j1: %+v\n  -j4: %+v",
					p.Name, kind, rs.EngStats, rp.EngStats)
			}
		}
	}
}
