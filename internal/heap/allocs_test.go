//go:build !race

package heap

import "testing"

// quietHeap is a heap whose allocations do nothing on the host but make
// the object: no collection, and a nursery list that never regrows
// mid-measurement.
func quietHeap() *Heap {
	h, _ := testHeap(false)
	h.cfg.NurserySize = 1 << 40
	h.nursery = make([]*Obj, 0, 1<<16)
	return h
}

// hostAllocs is the host allocation count a payload of n should cost: one
// up to the largest co-allocated tail, two beyond.
func hostAllocs(n, largestTail int) float64 {
	if n <= largestTail {
		return 1
	}
	return 2
}

// TestAllocObjDoesNotAllocateFieldsApart: an object with up to eight fields
// is one host allocation, header and fields together; a wider one is two.
func TestAllocObjDoesNotAllocateFieldsApart(t *testing.T) {
	h := quietHeap()
	sh := h.NewShape("rec", 0)
	for n := 0; n <= 12; n++ {
		var o *Obj
		got := testing.AllocsPerRun(100, func() { o = h.AllocObj(sh, n) })
		if want := hostAllocs(n, 8); got != want {
			t.Errorf("AllocObj(%d fields): %v host allocations, want %v", n, got, want)
		}
		if len(o.Fields) != n || cap(o.Fields) != n {
			t.Errorf("AllocObj(%d fields): len %d cap %d", n, len(o.Fields), cap(o.Fields))
		}
		if o.Size() != 16+8*uint64(n) {
			t.Errorf("AllocObj(%d fields): simulated size %d", n, o.Size())
		}
	}
}

// TestAllocBytesDoesNotAllocatePayloadApart: a string of up to 128 bytes is
// one host allocation, and its simulated size is a function of n alone —
// the host layout (which tail the payload landed in) must not show.
func TestAllocBytesDoesNotAllocatePayloadApart(t *testing.T) {
	h := quietHeap()
	sh := h.NewShape("str", 0)
	for n := 0; n <= 130; n++ {
		var o *Obj
		got := testing.AllocsPerRun(20, func() { o = h.AllocBytes(sh, n) })
		if want := hostAllocs(n, 128); got != want {
			t.Errorf("AllocBytes(%d): %v host allocations, want %v", n, got, want)
		}
		if o.Bytes == nil || len(o.Bytes) != n || cap(o.Bytes) != n {
			t.Errorf("AllocBytes(%d): nil %v len %d cap %d", n, o.Bytes == nil, len(o.Bytes), cap(o.Bytes))
		}
		if o.Size() != 16+uint64(n) {
			t.Errorf("AllocBytes(%d): simulated size %d, want %d", n, o.Size(), 16+n)
		}
		for _, b := range o.Bytes {
			if b != 0 {
				t.Fatalf("AllocBytes(%d): payload not zeroed", n)
			}
		}
	}
}

// TestAllocElemsDoesNotAllocateArrayApart: the same for an array part of up
// to eight elements on an object without fixed fields. With fixed fields
// the fields ride with the header and the array part is apart.
func TestAllocElemsDoesNotAllocateArrayApart(t *testing.T) {
	h := quietHeap()
	sh := h.NewShape("vec", 0)
	for n := 0; n <= 130; n++ {
		var o *Obj
		got := testing.AllocsPerRun(20, func() { o = h.AllocElems(sh, 0, n) })
		if want := hostAllocs(n, 8); got != want {
			t.Errorf("AllocElems(0, %d): %v host allocations, want %v", n, got, want)
		}
		if o.Elems == nil || len(o.Elems) != n || cap(o.Elems) != n {
			t.Errorf("AllocElems(0, %d): nil %v len %d cap %d", n, o.Elems == nil, len(o.Elems), cap(o.Elems))
		}
		if o.Size() != 32+8*uint64(n) {
			t.Errorf("AllocElems(0, %d): simulated size %d, want %d", n, o.Size(), 32+8*n)
		}
	}
	var o *Obj
	if got := testing.AllocsPerRun(20, func() { o = h.AllocElems(sh, 2, 4) }); got != 2 {
		t.Errorf("AllocElems(2, 4): %v host allocations, want 2", got)
	}
	if len(o.Fields) != 2 || len(o.Elems) != 4 || o.Size() != 16+8*2+16+8*4 {
		t.Errorf("AllocElems(2, 4): %d fields, %d elems, simulated size %d", len(o.Fields), len(o.Elems), o.Size())
	}
}
