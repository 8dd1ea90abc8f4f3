package core

import "testing"

// TestGrammarRoles holds the span grammar's shape: every built-in tag
// has a name and exactly one role (opener, closer or event), every
// closer names an opener, and each role fills only its own fields.
func TestGrammarRoles(t *testing.T) {
	names := map[string]Tag{}
	for tag := TagDispatch; int(tag) < NumBuiltinTags; tag++ {
		r := Rule(tag)
		if r.Name == "" {
			t.Errorf("tag %d has no name", tag)
		}
		if prev, ok := names[r.Name]; ok {
			t.Errorf("tags %d and %d are both named %q", prev, tag, r.Name)
		}
		names[r.Name] = tag
		switch {
		case r.Opener() && r.Closer():
			t.Errorf("%s both opens %s and closes %s", r.Name, r.Opens, TagName(r.Closes))
		case r.Opener():
			if r.In == 0 || r.MatchArg {
				t.Errorf("opener %s: In %b, MatchArg %v; want a parent set and no arg match", r.Name, r.In, r.MatchArg)
			}
		case r.Closer():
			if op := Rule(r.Closes); !op.Opener() {
				t.Errorf("closer %s names %s, which opens no span", r.Name, TagName(r.Closes))
			}
			if r.In != 0 {
				t.Errorf("closer %s has a phase set %b; it is checked against its opener", r.Name, r.In)
			}
		default:
			if r.In == 0 || r.MatchArg {
				t.Errorf("event %s: In %b, MatchArg %v; want a phase set and no arg match", r.Name, r.In, r.MatchArg)
			}
		}
		if TagName(tag) != r.Name {
			t.Errorf("TagName(%d) = %q, rule says %q", tag, TagName(tag), r.Name)
		}
	}
}

// TestGrammarCoversEveryPhase: each phase but the implicit root is
// opened by some tag, and a dynamic tag reads the unchecked TagNone row.
func TestGrammarCoversEveryPhase(t *testing.T) {
	var opened PhaseSet
	for _, tag := range SpanTags() {
		if r := Rule(tag); r.Opener() {
			opened |= PhasesOf(r.Opens)
		}
	}
	if want := AnyPhase &^ PhasesOf(PhaseInterp); opened != want {
		t.Errorf("openers cover phases %b, want %b", opened, want)
	}
	dyn := Rule(NewRegistry().Define("app.tick"))
	if dyn.Transition() || dyn.In != AnyPhase || dyn.Name != "" {
		t.Errorf("a dynamic tag reads %+v, want an unnamed event allowed anywhere", *dyn)
	}
}
