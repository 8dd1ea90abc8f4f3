package mtjit

import (
	"testing"

	"metajit/internal/core"
)

// TestTierTagsFollowGrammar holds each tierTable row to the span grammar
// (core.Rule): compileStart/compileEnd open and close the tier's compile
// phase, enter/leave open and close its residency phase (the leave
// repeating the enter's code ID), and deopt is an event allowed in that
// phase.
func TestTierTagsFollowGrammar(t *testing.T) {
	phases := [NumTiers]struct{ comp, run core.Phase }{
		BaselineTier: {core.PhaseBaselineComp, core.PhaseBaseline},
		MethodTier:   {core.PhaseMethodComp, core.PhaseMethod},
	}
	for tier := Tier(0); tier < NumTiers; tier++ {
		spec, want := &tierTable[tier], phases[tier]
		if r := core.Rule(spec.compileStart); r.Opens != want.comp {
			t.Errorf("%s: compileStart %s opens %s, want %s", tier, r.Name, r.Opens, want.comp)
		}
		if r := core.Rule(spec.compileEnd); r.Closes != spec.compileStart {
			t.Errorf("%s: compileEnd %s closes %s, want %s", tier, r.Name, core.TagName(r.Closes), core.TagName(spec.compileStart))
		}
		if r := core.Rule(spec.enter); r.Opens != want.run {
			t.Errorf("%s: enter %s opens %s, want %s", tier, r.Name, r.Opens, want.run)
		}
		if r := core.Rule(spec.leave); r.Closes != spec.enter || !r.MatchArg {
			t.Errorf("%s: leave %s closes %s (arg match %v), want %s with its arg", tier, r.Name, core.TagName(r.Closes), r.MatchArg, core.TagName(spec.enter))
		}
		if r := core.Rule(spec.deopt); r.Transition() || !r.In.Has(want.run) {
			t.Errorf("%s: deopt %s is not an event allowed in %s", tier, r.Name, want.run)
		}
	}
}
