package profile_test

import (
	"testing"

	"metajit/internal/bench"
	"metajit/internal/core"
	"metajit/internal/harness"
)

// TestPhaseNesting drives every benchmark program through the profiled
// harness on each meta-tracing VM configuration and asserts the live
// annotation stream is well-formed end to end: spans balance and obey
// the nesting grammar, state advances monotonically, the span stack
// agrees with the machine's phase at every transition, and the
// profiler's per-phase totals equal the machine's own counters exactly.
func TestPhaseNesting(t *testing.T) {
	// The amalgamated and adaptive kinds pin the method tier's span
	// grammar: method compile inside a baseline span, the takeover
	// (baseline_leave before method_enter), return while resident.
	vms := []harness.VMKind{harness.VMPyPyJIT, harness.VMPyPyTiered,
		harness.VMPyPyAmalg, harness.VMPyPyAdaptive, harness.VMPycket}
	for _, p := range bench.All() {
		p := p
		for _, vm := range vms {
			vm := vm
			if vm == harness.VMPycket && p.SkSource == "" {
				continue
			}
			t.Run(p.Name+"/"+string(vm), func(t *testing.T) {
				t.Parallel()
				res, err := harness.Run(&p, vm, harness.Options{Profile: true})
				if err != nil {
					t.Fatal(err)
				}
				prof := res.Profile
				if prof == nil {
					t.Fatal("Options.Profile did not attach a profiler")
				}
				if err := prof.Err(); err != nil {
					for _, e := range prof.Stream.Errors() {
						t.Logf("stream: %v", e)
					}
					for _, e := range prof.Errors() {
						t.Logf("profiler: %v", e)
					}
					t.Fatal(err)
				}
				if prof.Stream.Spans == 0 {
					t.Fatal("JIT-enabled run opened no spans")
				}
				totals := prof.PhaseTotals()
				for ph := core.Phase(0); ph < core.NumPhases; ph++ {
					if totals[ph] != res.Phases[ph] {
						t.Errorf("phase %s: profiler totals (instrs %d, cycles %g) diverge from machine (instrs %d, cycles %g)",
							ph, totals[ph].Instrs, totals[ph].Cycles,
							res.Phases[ph].Instrs, res.Phases[ph].Cycles)
					}
				}
			})
		}
	}
}
