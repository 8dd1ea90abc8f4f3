package difftest

import (
	"testing"

	"metajit/internal/bench"
)

// TestFixturesThroughOracle promotes the committed trace fixtures to
// ordinary differential-matrix members: the guest program embedded in
// each recording runs under the oracle's configuration set — plain
// interpreter through tiered JIT — with every cross-layer invariant
// (phase accounting, profiler stream grammar, engine validation)
// checked, exactly as for the synthetic suites. Recorded workloads get
// no special-casing anywhere in the oracle path.
func TestFixturesThroughOracle(t *testing.T) {
	progs, err := bench.LoadTraceDir("../bench/testdata/traces")
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) < 3 {
		t.Fatalf("only %d committed fixtures, want >= 3", len(progs))
	}
	for i := range progs {
		p := progs[i]
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			src, scheme := p.Source, false
			if p.SkSource != "" {
				src, scheme = p.SkSource, true
			}
			if _, err := RunCells(src, scheme, benchCells()); err != nil {
				t.Fatal(err)
			}
		})
	}
}
