package heap

import "testing"

// noDead fails if any slot of arr's backing array, spare capacity
// included, still points at an object the collector declared dead.
func noDead(t *testing.T, what string, arr []*Obj) {
	t.Helper()
	for i, o := range arr[:cap(arr)] {
		if o != nil && !o.Live() {
			t.Fatalf("%s backing array slot %d (len %d) still references a swept %s",
				what, i, len(arr), o.Shape.Name)
		}
	}
}

// TestSweptObjectsUnpinned: once a collection has swept an object, none of
// the heap's own backing arrays may keep it reachable — the host collector
// has to be able to free what the simulated one freed.
func TestSweptObjectsUnpinned(t *testing.T) {
	h, _ := testHeap(false)
	sh := h.NewShape("node", 1)
	var keep []*Obj
	h.AddRoots(RootFunc(func(visit func(*Obj)) {
		for _, o := range keep {
			visit(o)
		}
	}))

	// Promote a long chain of survivors, mutating old objects on the way
	// so the remembered set fills too.
	for i := 0; i < 400; i++ {
		o := h.AllocObj(sh, 1)
		if i > 0 {
			h.WriteField(keep[len(keep)-1], 0, RefVal(o))
		}
		keep = append(keep, o)
	}
	h.Minor()
	if len(h.old) < 400 {
		t.Fatalf("only %d objects promoted", len(h.old))
	}
	noDead(t, "nursery", h.nursery)

	// Drop most of them and leave garbage in the nursery as well.
	for _, o := range keep[10:] {
		h.WriteField(o, 0, Nil)
	}
	h.WriteField(keep[9], 0, Nil)
	keep = keep[:10]
	for i := 0; i < 50; i++ {
		h.AllocObj(sh, 1)
	}
	h.Major()
	if len(h.old) > 20 {
		t.Fatalf("%d old objects survived, want about 10", len(h.old))
	}
	noDead(t, "old generation", h.old)
	noDead(t, "nursery", h.nursery)
	noDead(t, "remembered set", h.remset)
	noDead(t, "mark stack", h.markStack)
}
