package heap

import (
	"testing"

	"metajit/internal/core"
)

// annotCount tallies annotations by tag in a suffix of testStream.Annotations.
func annotCount(anns []core.Annotation, tag core.Tag) int {
	n := 0
	for _, a := range anns {
		if a.Tag == tag {
			n++
		}
	}
	return n
}

// TestGCSkipAnnounced pins the re-entrancy guard's behavior: a
// collection request arriving while a collection is active is dropped,
// but announced as a TagGCSkipped event carrying the dropped request's
// reason — never silently swallowed.
func TestGCSkipAnnounced(t *testing.T) {
	h, s := testHeap(false)
	h.gcActive = true

	mark := len(s.Annotations)
	h.Minor()
	if got := h.Stats().Skipped; got != 1 {
		t.Fatalf("Stats.Skipped = %d after re-entrant Minor, want 1", got)
	}
	if got := h.Stats().Minor; got != 0 {
		t.Fatalf("re-entrant Minor ran: Minor = %d", got)
	}
	anns := s.Annotations[mark:]
	if len(anns) != 1 || anns[0].Tag != core.TagGCSkipped || anns[0].Arg != core.GCReasonExplicit {
		t.Fatalf("re-entrant Minor emitted %v, want one gc_skipped(explicit)", anns)
	}

	mark = len(s.Annotations)
	h.Major()
	if got := h.Stats().Skipped; got != 2 {
		t.Fatalf("Stats.Skipped = %d after re-entrant Major, want 2", got)
	}
	if got := h.Stats().Major; got != 0 {
		t.Fatalf("re-entrant Major ran: Major = %d", got)
	}
	anns = s.Annotations[mark:]
	if len(anns) != 1 || anns[0].Tag != core.TagGCSkipped || anns[0].Arg != core.GCReasonExplicit {
		t.Fatalf("re-entrant Major emitted %v, want one gc_skipped(explicit)", anns)
	}

	// With the guard released, the same requests run and bracket
	// themselves with start/end annotations carrying their reasons.
	h.gcActive = false
	mark = len(s.Annotations)
	h.Minor()
	if got := h.Stats().Minor; got != 1 {
		t.Fatalf("Minor = %d after clean Minor, want 1", got)
	}
	anns = s.Annotations[mark:]
	if len(anns) == 0 || anns[0].Tag != core.TagGCMinorStart || anns[0].Arg != core.GCReasonExplicit {
		t.Fatalf("clean Minor opened with %v, want gc_minor_start(explicit)", anns)
	}
	if annotCount(anns, core.TagGCSkipped) != 0 {
		t.Fatalf("clean Minor emitted gc_skipped: %v", anns)
	}
}

// TestGCReasonThreading checks the trigger reason each collection path
// threads into its start annotation: the allocation slow path reports
// GCReasonAlloc, and an explicit Major brackets its preparatory nursery
// flush as GCReasonPreMajor before the major span opens.
func TestGCReasonThreading(t *testing.T) {
	h, s := testHeap(false)
	sh := h.NewShape("filler", 4)

	for h.Stats().Minor == 0 {
		h.AllocObj(sh, 4)
	}
	found := false
	for _, a := range s.Annotations {
		if a.Tag == core.TagGCMinorStart {
			if a.Arg != core.GCReasonAlloc {
				t.Fatalf("allocation-triggered minor has reason %d, want GCReasonAlloc", a.Arg)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no gc_minor_start annotation after allocation-triggered collection")
	}

	mark := len(s.Annotations)
	h.Major()
	anns := s.Annotations[mark:]
	var tags []core.Tag
	var args []uint64
	for _, a := range anns {
		switch a.Tag {
		case core.TagGCMinorStart, core.TagGCMinorEnd, core.TagGCMajorStart, core.TagGCMajorEnd:
			tags = append(tags, a.Tag)
			args = append(args, a.Arg)
		}
	}
	if len(tags) != 4 ||
		tags[0] != core.TagGCMinorStart || tags[1] != core.TagGCMinorEnd ||
		tags[2] != core.TagGCMajorStart || tags[3] != core.TagGCMajorEnd {
		t.Fatalf("explicit Major emitted %v, want minor pair then major pair", tags)
	}
	if args[0] != core.GCReasonPreMajor {
		t.Fatalf("pre-major minor has reason %d, want GCReasonPreMajor", args[0])
	}
	if args[2] != core.GCReasonExplicit {
		t.Fatalf("explicit major has reason %d, want GCReasonExplicit", args[2])
	}
	if got := h.Stats().Skipped; got != 0 {
		t.Fatalf("clean runs recorded %d skips", got)
	}
}

// TestGCTagsFollowGrammar reads the collector's annotations against the
// span grammar (core.Rule): each start tag opens a gc span from the
// phase it fires in, each end tag closes the start just before it, and a
// skipped request is an event allowed inside a collection.
func TestGCTagsFollowGrammar(t *testing.T) {
	h, s := testHeap(false)
	h.Minor()
	h.Major()
	var open []core.Tag
	phase := core.PhaseInterp
	opened := map[core.Tag]bool{}
	for _, a := range s.Annotations {
		r := core.Rule(a.Tag)
		switch {
		case r.Opener():
			if r.Opens != core.PhaseGC || !r.In.Has(phase) {
				t.Fatalf("%s opens %s from %s; want a gc span", r.Name, r.Opens, phase)
			}
			open = append(open, a.Tag)
			opened[a.Tag] = true
			phase = core.PhaseGC
		case r.Closer():
			if len(open) == 0 || r.Closes != open[len(open)-1] {
				t.Fatalf("%s closes %s, but the open spans are %v", r.Name, core.TagName(r.Closes), open)
			}
			open = open[:len(open)-1]
			phase = core.PhaseInterp
		}
	}
	if len(open) != 0 || !opened[core.TagGCMinorStart] || !opened[core.TagGCMajorStart] {
		t.Fatalf("a minor and a major left spans %v open, opened %v", open, opened)
	}
	if !core.Rule(core.TagGCSkipped).In.Has(core.PhaseGC) {
		t.Fatal("gc_skipped is not allowed inside a collection")
	}
}
