package aot

import (
	"metajit/internal/heap"
	"metajit/internal/isa"
)

// Dict is the ordered dictionary of the runtime: the analog of RPython's
// rordereddict, whose lookup function (ll_call_lookup_function) the paper
// finds near the top of Table III for many benchmarks. Layout follows the
// real implementation: a dense, insertion-ordered entries array plus a
// sparse open-addressing index table.
//
// A Dict lives in the Native slot of a guest heap object and implements
// heap.NativeScanner so the collector traces its keys and values.
type Dict struct {
	entries []DictEntry
	index   []int32 // slotFree, slotTomb, or entry number
	used    int
	fill    int // used + tombstones in index

	indexAddr   uint64
	entriesAddr uint64
}

// DictEntry is one dense entry.
type DictEntry struct {
	Hash uint64
	Key  heap.Value
	Val  heap.Value
	Dead bool
}

const (
	slotFree int32 = -1
	slotTomb int32 = -2
)

var (
	siteDictProbe = isa.NewSite()
	siteDictHit   = isa.NewSite()
	siteStrEqLoop = isa.NewSite()
)

// NewDict returns an empty dict with simulated table addresses from h.
func (rt *Runtime) NewDict() *Dict {
	d := &Dict{index: newIndex(8)}
	d.indexAddr = rt.H.RawAlloc(8 * 4)
	d.entriesAddr = rt.H.RawAlloc(1)
	return d
}

func newIndex(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = slotFree
	}
	return idx
}

// ScanRefs implements heap.NativeScanner.
func (d *Dict) ScanRefs(visit func(*heap.Obj)) {
	for i := range d.entries {
		if d.entries[i].Dead {
			continue
		}
		if d.entries[i].Key.Kind == heap.KindRef {
			visit(d.entries[i].Key.O)
		}
		if d.entries[i].Val.Kind == heap.KindRef {
			visit(d.entries[i].Val.O)
		}
	}
}

// NativeSize implements heap.NativeSized.
func (d *Dict) NativeSize() uint64 {
	return uint64(4*len(d.index) + 32*cap(d.entries))
}

// Len returns the number of live entries.
func (d *Dict) Len() int { return d.used }

// HashValue computes (and for strings, caches) the guest hash of a key,
// emitting the hashing cost.
func (rt *Runtime) HashValue(v heap.Value) uint64 {
	switch v.Kind {
	case heap.KindInt, heap.KindBool:
		rt.S.Ops(isa.ALU, 2)
		return uint64(v.I)*0x9E3779B97F4A7C15 + 1
	case heap.KindFloat:
		rt.S.Ops(isa.ALU, 3)
		// Integral floats hash like their integer value would not in
		// this simplified model; bit hashing suffices for the guests.
		return uint64(int64(v.F()*4096)) * 0x9E3779B97F4A7C15
	case heap.KindNil:
		rt.S.Ops(isa.ALU, 1)
		return 0x5bd1e995
	case heap.KindRef:
		if rt.IsStr(v.O) {
			return rt.StrHash(v.O)
		}
		rt.S.Ops(isa.ALU, 2)
		return v.O.UID() * 0x9E3779B97F4A7C15
	}
	return 0
}

// keyEq compares a stored key with a probe key, emitting the comparison
// cost (identity compare, or byte compare for strings).
func (rt *Runtime) keyEq(a, b heap.Value) bool {
	rt.S.Ops(isa.ALU, 1)
	if a.Kind != b.Kind {
		return false
	}
	if a.Kind == heap.KindRef && b.Kind == heap.KindRef &&
		a.O != b.O && rt.IsStr(a.O) && rt.IsStr(b.O) {
		return rt.strEqCost(a.O.Bytes, b.O.Bytes)
	}
	return a.Eq(b)
}

func (rt *Runtime) strEqCost(a, b []byte) bool {
	if len(a) != len(b) {
		rt.S.Ops(isa.ALU, 1)
		return false
	}
	n := len(a) / 8
	if n == 0 {
		n = 1
	}
	rt.S.Ops(isa.Load, 2*n)
	rt.S.Ops(isa.ALU, n)
	rt.S.Branch(siteStrEqLoop.PC(), false)
	return string(a) == string(b)
}

// lookup probes the index table for hash/key. It returns the entry number
// or -1, and the index slot where an insert should go.
func (rt *Runtime) lookup(d *Dict, hash uint64, key heap.Value) (entry int32, insertSlot int) {
	mask := uint64(len(d.index) - 1)
	perturb := hash
	i := hash & mask
	insertSlot = -1
	for probes := 0; ; probes++ {
		rt.S.Load(d.indexAddr + i*4)
		rt.S.Ops(isa.ALU, 2)
		e := d.index[i]
		if e == slotFree {
			rt.S.Branch(siteDictProbe.PC(), false)
			if insertSlot < 0 {
				insertSlot = int(i)
			}
			return -1, insertSlot
		}
		if e == slotTomb {
			if insertSlot < 0 {
				insertSlot = int(i)
			}
		} else {
			ent := &d.entries[e]
			rt.S.Load(d.entriesAddr + uint64(e)*32)
			if ent.Hash == hash && rt.keyEq(ent.Key, key) {
				rt.S.Branch(siteDictHit.PC(), true)
				return e, int(i)
			}
		}
		rt.S.Branch(siteDictProbe.PC(), true)
		perturb >>= 5
		i = (i*5 + perturb + 1) & mask
	}
}

// DictGet returns the value stored under key, reporting presence. This is
// the rordereddict.ll_call_lookup_function entry point.
func (rt *Runtime) DictGet(d *Dict, key heap.Value) (heap.Value, bool) {
	h := rt.HashValue(key)
	e, _ := rt.lookup(d, h, key)
	if e < 0 {
		return heap.Nil, false
	}
	rt.S.Load(d.entriesAddr + uint64(e)*32 + 16)
	return d.entries[e].Val, true
}

// DictSet stores val under key.
func (rt *Runtime) DictSet(d *Dict, key, val heap.Value) {
	h := rt.HashValue(key)
	e, slot := rt.lookup(d, h, key)
	if e >= 0 {
		d.entries[e].Val = val
		rt.S.Store(d.entriesAddr + uint64(e)*32 + 16)
		return
	}
	if d.index[slot] == slotFree {
		d.fill++
	}
	d.index[slot] = int32(len(d.entries))
	d.entries = append(d.entries, DictEntry{Hash: h, Key: key, Val: val})
	d.used++
	rt.S.Store(d.indexAddr + uint64(slot)*4)
	rt.S.Store(d.entriesAddr + uint64(len(d.entries)-1)*32)
	rt.S.Ops(isa.ALU, 3)
	if d.fill*3 >= len(d.index)*2 {
		rt.rehash(d)
	}
}

// DictDel removes key, reporting whether it was present.
func (rt *Runtime) DictDel(d *Dict, key heap.Value) bool {
	h := rt.HashValue(key)
	e, slot := rt.lookup(d, h, key)
	if e < 0 {
		return false
	}
	d.entries[e].Dead = true
	d.entries[e].Key = heap.Nil
	d.entries[e].Val = heap.Nil
	d.index[slot] = slotTomb
	d.used--
	rt.S.Store(d.indexAddr + uint64(slot)*4)
	rt.S.Ops(isa.ALU, 2)
	return true
}

// rehash grows the index table and re-inserts live entries, compacting the
// dense array.
func (rt *Runtime) rehash(d *Dict) {
	n := len(d.index) * 2
	for n < d.used*4 {
		n *= 2
	}
	live := make([]DictEntry, 0, d.used)
	for _, e := range d.entries {
		if !e.Dead {
			live = append(live, e)
		}
	}
	d.entries = live
	d.index = newIndex(n)
	d.indexAddr = rt.H.RawAlloc(uint64(n) * 4)
	d.entriesAddr = rt.H.RawAlloc(uint64(cap(live)) * 32)
	d.fill = d.used
	mask := uint64(n - 1)
	for ei := range d.entries {
		perturb := d.entries[ei].Hash
		i := d.entries[ei].Hash & mask
		for d.index[i] != slotFree {
			perturb >>= 5
			i = (i*5 + perturb + 1) & mask
		}
		d.index[i] = int32(ei)
		rt.S.Ops(isa.Load, 1)
		rt.S.Ops(isa.Store, 2)
		rt.S.Ops(isa.ALU, 3)
	}
}

// DictItems calls f on each live entry in insertion order.
func (rt *Runtime) DictItems(d *Dict, f func(k, v heap.Value)) {
	for i := range d.entries {
		rt.S.Load(d.entriesAddr + uint64(i)*32)
		rt.S.Ops(isa.ALU, 1)
		if !d.entries[i].Dead {
			f(d.entries[i].Key, d.entries[i].Val)
		}
	}
}

// Items calls f on each live entry in insertion order without emitting
// simulated cost. Inspection-only (heap checksums, debugging): guest
// iteration must go through Runtime.DictItems so the work is accounted.
func (d *Dict) Items(f func(k, v heap.Value)) {
	for i := range d.entries {
		if !d.entries[i].Dead {
			f(d.entries[i].Key, d.entries[i].Val)
		}
	}
}

// NthKey returns the i-th live key (iteration support).
func (d *Dict) NthKey(i int) (heap.Value, bool) {
	n := 0
	for j := range d.entries {
		if d.entries[j].Dead {
			continue
		}
		if n == i {
			return d.entries[j].Key, true
		}
		n++
	}
	return heap.Nil, false
}
