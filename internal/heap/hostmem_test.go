package heap

import (
	"runtime"
	"testing"
	"time"
)

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
	// A Debug heap: only a death consumer makes the heap list objects.
	h, _ := testHeap(true)
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

// finalized reports on the returned channel when the host collector frees
// o (once, from the finalizer goroutine).
func finalized(o *Obj) <-chan struct{} {
	ch := make(chan struct{})
	runtime.SetFinalizer(o, func(*Obj) { close(ch) })
	return ch
}

// hostFreed runs the host collector and reports whether ch fired. Two
// cycles: the first queues the finalizer, the second is what a real free
// would wait for; the finalizer itself runs on its own goroutine.
func hostFreed(ch <-chan struct{}) bool {
	runtime.GC()
	runtime.GC()
	select {
	case <-ch:
		return true
	case <-time.After(2 * time.Second):
		return false
	}
}

// TestDeadYoungFreedBeforeMinor: the nursery is a count, not a list, so a
// young object the guest drops is the Go collector's at once, before any
// simulated minor collection.
func TestDeadYoungFreedBeforeMinor(t *testing.T) {
	h, _ := testHeap(false)
	sh := h.NewShape("node", 1)
	dead := finalized(h.AllocObj(sh, 1))
	if !hostFreed(dead) {
		t.Error("a dead nursery object is held on the host until a minor collection")
	}
	if n := h.Stats().Minor; n != 0 {
		t.Fatalf("%d minor collections ran", n)
	}
	runtime.KeepAlive(h)
}

// TestDeadOldFreedBeforeMajor: nor is the old generation a list, so an
// object a minor collection promoted and the guest then drops is freed on
// the host before any major collection, which still counts it dead.
func TestDeadOldFreedBeforeMajor(t *testing.T) {
	h, _ := testHeap(false)
	sh := h.NewShape("node", 1)
	var root *Obj
	h.AddRoots(RootFunc(func(visit func(*Obj)) { visit(root) }))
	root = h.AllocObj(sh, 1)
	dead := finalized(root)
	h.Minor()
	if !root.Old() || h.OldBytes() != root.Size() {
		t.Fatalf("not promoted: old=%v, %d old bytes", root.Old(), h.OldBytes())
	}
	root = nil
	if !hostFreed(dead) {
		t.Error("a dead old object is held on the host until a major collection")
	}
	if n := h.Stats().Major; n != 0 {
		t.Fatalf("%d major collections ran", n)
	}
	h.Major()
	if h.OldBytes() != 0 {
		t.Errorf("%d old bytes after the major collection, want 0", h.OldBytes())
	}
}

// TestDeadCoallocatedObjectsFreedOnHost: a string and an array whose
// payload shares the header's host allocation are each their own
// allocation, not slots of a slab — when the simulated collector finds
// them dead the Go collector frees them, while a survivor allocated right
// after them stays.
func TestDeadCoallocatedObjectsFreedOnHost(t *testing.T) {
	h, _ := testHeap(false)
	str, vec := h.NewShape("str", 0), h.NewShape("vec", 0)
	var survivor *Obj
	h.AddRoots(RootFunc(func(visit func(*Obj)) { visit(survivor) }))

	garbage := func() (<-chan struct{}, <-chan struct{}) {
		return finalized(h.AllocBytes(str, 24)), finalized(h.AllocElems(vec, 0, 3))
	}
	deadStr, deadVec := garbage()
	survivor = h.AllocBytes(str, 24)
	kept := finalized(survivor)
	h.Minor()
	if !survivor.Old() {
		t.Fatal("survivor was not promoted")
	}
	if !hostFreed(deadStr) {
		t.Error("a dead co-allocated string is still held on the host")
	}
	if !hostFreed(deadVec) {
		t.Error("a dead co-allocated array is still held on the host")
	}
	select {
	case <-kept:
		t.Error("the survivor was freed on the host")
	default:
	}
	runtime.KeepAlive(h)
}

// TestOutgrownTailPinsNothing: a list that outgrows its co-allocated array
// part keeps that tail for as long as it lives, so growth must leave no
// reference in it — an element later dropped from the list and collected
// by the simulated collector is freed by the host's too.
func TestOutgrownTailPinsNothing(t *testing.T) {
	h, _ := testHeap(false)
	node, vec := h.NewShape("node", 0), h.NewShape("vec", 0)
	list := h.AllocElems(vec, 0, 2)
	h.AddRoots(RootFunc(func(visit func(*Obj)) { visit(list) }))

	fill := func() <-chan struct{} {
		elem := h.AllocObj(node, 0)
		h.WriteElem(list, 0, RefVal(elem))
		return finalized(elem)
	}
	dropped := fill()
	h.AppendElem(list, IntVal(1)) // outgrows the two-element tail
	h.WriteElem(list, 0, Nil)
	h.Minor()
	if !hostFreed(dropped) {
		t.Error("an element dropped after growth is still held on the host: the outgrown tail references it")
	}
	runtime.KeepAlive(h)
}
