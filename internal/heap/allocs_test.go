//go:build !race

package heap

import "testing"

// TestAllocObjDoesNotAllocateFieldsApart: an object with up to four fields
// is one host allocation, header and fields together; a wider one is two.
func TestAllocObjDoesNotAllocateFieldsApart(t *testing.T) {
	h, _ := testHeap(false)
	h.cfg.NurserySize = 1 << 40 // no collection: the nursery list would grow mid-measurement
	h.nursery = make([]*Obj, 0, 1<<16)
	sh := h.NewShape("rec", 0)
	for n, want := range []float64{1, 1, 1, 1, 1, 2, 2} {
		var o *Obj
		got := testing.AllocsPerRun(100, func() { o = h.AllocObj(sh, n) })
		if got != want {
			t.Errorf("AllocObj(%d fields): %v host allocations, want %v", n, got, want)
		}
		if len(o.Fields) != n || cap(o.Fields) != n {
			t.Errorf("AllocObj(%d fields): len %d cap %d", n, len(o.Fields), cap(o.Fields))
		}
	}
}
