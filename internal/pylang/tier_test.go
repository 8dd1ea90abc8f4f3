package pylang

import (
	"testing"

	"metajit/internal/core"
	"metajit/internal/cpu"
	"metajit/internal/mtjit"
)

const tierLoopSrc = `
def main():
    s = 0
    i = 0
    while i < 400:
        s = s + i * 2
        i = i + 1
    return s
`

// tierRow is one lower tier under test: its config with tracing out of
// reach (execution stays in the tier's code), its EngineStats counters,
// and the annotation pair that brackets residency.
type tierRow struct {
	name         string
	tier         mtjit.Tier
	cfg          Config
	stats        func(mtjit.EngineStats) tierStats
	enter, leave core.Tag
	// promotionInvalidates: a loop trace supersedes the tier's code at
	// its header (baseline), or coexists with it (method).
	promotionInvalidates bool
}

type tierStats struct {
	compiled, invalidated int
	enters, deopts        uint64
}

var tierRows = []tierRow{
	{
		name: "baseline", tier: mtjit.BaselineTier,
		cfg: Config{Engine: &mtjit.Config{Threshold: 1 << 20, BaselineThreshold: 3}},
		stats: func(s mtjit.EngineStats) tierStats {
			return tierStats{s.BaselinesCompiled, s.BaselineInvalidated, s.BaselineEnters, s.BaselineDeopts}
		},
		enter: core.TagBaselineEnter, leave: core.TagBaselineLeave,
		promotionInvalidates: true,
	},
	{
		name: "method", tier: mtjit.MethodTier,
		cfg: Config{Engine: &mtjit.Config{Threshold: 1 << 20, MethodThreshold: 3}},
		stats: func(s mtjit.EngineStats) tierStats {
			return tierStats{s.MethodsCompiled, s.MethodInvalidated, s.MethodEnters, s.MethodDeopts}
		},
		enter: core.TagMethodEnter, leave: core.TagMethodLeave,
	},
}

func forEachTier(t *testing.T, f func(t *testing.T, row tierRow)) {
	for _, row := range tierRows {
		t.Run(row.name, func(t *testing.T) { f(t, row) })
	}
}

// TestTierMatchesInterp checks each lower-tier pipeline end to end: the
// loop gets the tier's code at the low threshold, runs resident, is
// promoted to a trace at the hot threshold (invalidating baseline code;
// method code coexists with the trace), and the result matches plain
// interpretation.
func TestTierMatchesInterp(t *testing.T) {
	forEachTier(t, func(t *testing.T, row tierRow) {
		want, _ := interp(t, tierLoopSrc)
		eng := *row.cfg.Engine
		eng.Threshold, eng.BridgeThreshold = 13, 7
		got, vm := runProgram(t, tierLoopSrc, Config{Engine: &eng})
		wantInt(t, got, want.I)

		st := vm.Eng.Stats()
		ts := row.stats(st)
		if ts.compiled == 0 {
			t.Fatal("tier never compiled")
		}
		if ts.enters == 0 {
			t.Fatal("tier code never entered")
		}
		if st.LoopsCompiled == 0 {
			t.Fatal("loop never promoted to a trace")
		}
		if (ts.invalidated > 0) != row.promotionInvalidates {
			t.Fatalf("promotion invalidated %d codes, want invalidation=%v", ts.invalidated, row.promotionInvalidates)
		}
		// Each superseded baseline is one promotion; method code stays.
		if got := vm.Eng.BaselinePromotions(); got != ts.invalidated {
			t.Fatalf("BaselinePromotions() = %d, tier invalidated %d codes", got, ts.invalidated)
		}
		if err := vm.Eng.Validate(); err != nil {
			t.Fatalf("engine validation: %v", err)
		}
	})
}

// TestTierOnlyMatchesInterp runs with the tracing threshold out of
// reach: execution stays in the tier's code for the whole loop and
// results still match the interpreter.
func TestTierOnlyMatchesInterp(t *testing.T) {
	forEachTier(t, func(t *testing.T, row tierRow) {
		want, _ := interp(t, tierLoopSrc)
		got, vm := runProgram(t, tierLoopSrc, row.cfg)
		wantInt(t, got, want.I)

		st := vm.Eng.Stats()
		if ts := row.stats(st); ts.compiled == 0 || ts.enters == 0 {
			t.Fatalf("tier not engaged: %+v", st)
		}
		if st.LoopsCompiled != 0 {
			t.Fatalf("tracing fired below threshold: %+v", st)
		}
		if err := vm.Eng.Validate(); err != nil {
			t.Fatalf("engine validation: %v", err)
		}
	})
}

// TestTierGlobalInvalidation mutates a module global the tier's code
// embedded: the code must be invalidated, execution falls back to the
// interpreter, and the recompiled code (mutated name excluded from its
// dependencies) survives further stores.
func TestTierGlobalInvalidation(t *testing.T) {
	src := `
g = 7
def bump(x):
    global g
    g = x
    return x
def main():
    s = 0
    i = 0
    while i < 300:
        s = s + g
        if i == 150:
            bump(1)
        i = i + 1
    return s
`
	forEachTier(t, func(t *testing.T, row tierRow) {
		want, _ := interp(t, src)
		got, vm := runProgram(t, src, row.cfg)
		wantInt(t, got, want.I)

		st := vm.Eng.Stats()
		ts := row.stats(st)
		if ts.invalidated == 0 {
			t.Fatalf("global mutation did not invalidate the tier's code: %+v", st)
		}
		if ts.compiled < 2 {
			t.Fatalf("loop was not recompiled after invalidation: %+v", st)
		}
		if err := vm.Eng.Validate(); err != nil {
			t.Fatalf("engine validation: %v", err)
		}
	})
}

// TestTierForcedDeopt forces every lower-tier guard to fail once: each
// deopt must fall back to the interpreter mid-loop with no effect on the
// result.
func TestTierForcedDeopt(t *testing.T) {
	forEachTier(t, func(t *testing.T, row tierRow) {
		want, _ := interp(t, tierLoopSrc)

		failed := map[uint64]bool{}
		vmF := New(cpu.NewDefault(), row.cfg)
		vmF.Eng.ForceTierGuardFail = func(c *mtjit.TierCode, id uint64) bool {
			if c.Tier != row.tier {
				t.Errorf("guard in %s code, want %s", c.Tier, row.tier)
			}
			key := uint64(c.CodeID)<<40 | id
			if failed[key] {
				return false
			}
			failed[key] = true
			return true
		}
		if err := vmF.LoadModule("test", tierLoopSrc); err != nil {
			t.Fatalf("load: %v", err)
		}
		res := vmF.RunFunction("main")
		wantInt(t, res, want.I)
		if row.stats(vmF.Eng.Stats()).deopts == 0 {
			t.Fatal("forced guard failures produced no deopts")
		}
		if err := vmF.Eng.Validate(); err != nil {
			t.Fatalf("engine validation: %v", err)
		}
	})
}

// TestReturnEndsResidency returns from main inside a loop that is
// resident in lower-tier code (a loop extent covers a return in its
// body; method code covers every return): leaving the entry frame must
// end residency, so every enter annotation has its leave and the next
// call starts on the interpreter's machine.
func TestReturnEndsResidency(t *testing.T) {
	src := `
def main():
    i = 0
    while i < 1000:
        i = i + 1
        if i > 50:
            return i
`
	forEachTier(t, func(t *testing.T, row tierRow) {
		vm := New(cpu.NewDefault(), row.cfg)
		open := 0
		vm.Mach.Observe(core.ObserverFunc(func(a core.Annotation, _, _ uint64) {
			switch a.Tag {
			case row.enter:
				open++
			case row.leave:
				open--
			}
		}))
		if err := vm.LoadModule("test", src); err != nil {
			t.Fatalf("load: %v", err)
		}
		wantInt(t, vm.RunFunction("main"), 51)
		if row.stats(vm.Eng.Stats()).enters == 0 {
			t.Fatal("loop never ran resident; the test does not reach the return path")
		}
		if open != 0 {
			t.Errorf("%d residency span(s) still open after main returned", open)
		}
		if !vm.m.Plain() || vm.tierCode != nil {
			t.Errorf("VM still resident after main returned: machine hooked %v, code %v", !vm.m.Plain(), vm.tierCode)
		}
	})
}
