package aot

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"metajit/internal/cpu"
	"metajit/internal/heap"
	"metajit/internal/isa"
)

// testRuntime returns a runtime and the machine it retires into; tests
// read instruction and class counts from the machine's totals.
func testRuntime() (*Runtime, *cpu.Machine) {
	s := cpu.NewDefault()
	h := heap.New(s, heap.DefaultConfig())
	rt := NewRuntime(h)
	rt.StrShape = h.NewShape("str", 0)
	rt.BigShape = h.NewShape("bigint", 0)
	rt.DictShape = h.NewShape("dict", 0)
	rt.ListShape = h.NewShape("list", 0)
	return rt, s
}

func TestDictSetGetDelete(t *testing.T) {
	rt, _ := testRuntime()
	d := rt.NewDict()
	for i := 0; i < 100; i++ {
		rt.DictSet(d, heap.IntVal(int64(i)), heap.IntVal(int64(i*i)))
	}
	if d.Len() != 100 {
		t.Fatalf("Len = %d", d.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := rt.DictGet(d, heap.IntVal(int64(i)))
		if !ok || v.I != int64(i*i) {
			t.Fatalf("get %d = %v ok=%v", i, v, ok)
		}
	}
	if _, ok := rt.DictGet(d, heap.IntVal(1000)); ok {
		t.Fatalf("found missing key")
	}
	if !rt.DictDel(d, heap.IntVal(50)) {
		t.Fatalf("delete failed")
	}
	if _, ok := rt.DictGet(d, heap.IntVal(50)); ok {
		t.Fatalf("deleted key still present")
	}
	if d.Len() != 99 {
		t.Fatalf("Len after delete = %d", d.Len())
	}
	if rt.DictDel(d, heap.IntVal(50)) {
		t.Fatalf("double delete reported success")
	}
}

func TestDictStringKeys(t *testing.T) {
	rt, _ := testRuntime()
	d := rt.NewDict()
	// Two distinct string objects with equal bytes must be one key.
	k1 := rt.NewStr([]byte("hello"))
	k2 := rt.NewStr([]byte("hello"))
	rt.DictSet(d, heap.RefVal(k1), heap.IntVal(1))
	rt.DictSet(d, heap.RefVal(k2), heap.IntVal(2))
	if d.Len() != 1 {
		t.Fatalf("equal-content string keys made %d entries", d.Len())
	}
	v, ok := rt.DictGet(d, heap.RefVal(rt.NewStr([]byte("hello"))))
	if !ok || v.I != 2 {
		t.Fatalf("string lookup = %v ok=%v", v, ok)
	}
}

func TestDictOverwrite(t *testing.T) {
	rt, _ := testRuntime()
	d := rt.NewDict()
	k := heap.IntVal(7)
	rt.DictSet(d, k, heap.IntVal(1))
	rt.DictSet(d, k, heap.IntVal(2))
	if d.Len() != 1 {
		t.Fatalf("overwrite created new entry")
	}
	v, _ := rt.DictGet(d, k)
	if v.I != 2 {
		t.Fatalf("overwrite lost: %v", v)
	}
}

func TestDictInsertionOrder(t *testing.T) {
	rt, _ := testRuntime()
	d := rt.NewDict()
	keys := []int64{5, 3, 9, 1, 7}
	for _, k := range keys {
		rt.DictSet(d, heap.IntVal(k), heap.Nil)
	}
	var got []int64
	rt.DictItems(d, func(k, _ heap.Value) { got = append(got, k.I) })
	for i, k := range keys {
		if got[i] != k {
			t.Fatalf("iteration order %v, want %v", got, keys)
		}
	}
	if k, ok := d.NthKey(2); !ok || k.I != 9 {
		t.Fatalf("NthKey(2) = %v ok=%v", k, ok)
	}
}

func TestDictTombstoneReuseAndRehash(t *testing.T) {
	rt, _ := testRuntime()
	d := rt.NewDict()
	// Insert/delete churn exercising tombstones and growth.
	for round := 0; round < 10; round++ {
		for i := 0; i < 200; i++ {
			rt.DictSet(d, heap.IntVal(int64(i)), heap.IntVal(int64(round)))
		}
		for i := 0; i < 200; i += 2 {
			rt.DictDel(d, heap.IntVal(int64(i)))
		}
	}
	if d.Len() != 100 {
		t.Fatalf("Len after churn = %d, want 100", d.Len())
	}
	for i := 1; i < 200; i += 2 {
		v, ok := rt.DictGet(d, heap.IntVal(int64(i)))
		if !ok || v.I != 9 {
			t.Fatalf("key %d = %v ok=%v after churn", i, v, ok)
		}
	}
}

// Property: the dict behaves exactly like a Go map under random ops.
func TestDictMatchesMapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rt, _ := testRuntime()
		d := rt.NewDict()
		ref := map[int64]int64{}
		for op := 0; op < 500; op++ {
			k := int64(rng.Intn(50))
			switch rng.Intn(3) {
			case 0, 1:
				v := rng.Int63n(1000)
				rt.DictSet(d, heap.IntVal(k), heap.IntVal(v))
				ref[k] = v
			case 2:
				got := rt.DictDel(d, heap.IntVal(k))
				_, want := ref[k]
				if got != want {
					return false
				}
				delete(ref, k)
			}
		}
		if d.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := rt.DictGet(d, heap.IntVal(k))
			if !ok || got.I != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDictEmitsProbeTraffic(t *testing.T) {
	rt, s := testRuntime()
	d := rt.NewDict()
	before := s.TotalInstrs()
	rt.DictSet(d, heap.IntVal(1), heap.IntVal(2))
	rt.DictGet(d, heap.IntVal(1))
	if s.TotalInstrs() == before {
		t.Fatalf("dict operations emitted no instructions")
	}
	if s.Total().ClassCounts[isa.Load] == 0 {
		t.Fatalf("dict probes emitted no loads")
	}
}

func TestDictGCIntegration(t *testing.T) {
	cfg := heap.DefaultConfig()
	cfg.NurserySize = 2 << 10
	h := heap.New(cpu.NewDefault(), cfg)
	rt := NewRuntime(h)
	rt.StrShape = h.NewShape("str", 0)
	dictShape := h.NewShape("dict", 0)

	var root *heap.Obj
	h.AddRoots(heap.RootFunc(func(visit func(*heap.Obj)) {
		if root != nil {
			visit(root)
		}
	}))
	root = h.AllocObj(dictShape, 0)
	d := rt.NewDict()
	root.Native = d
	// Values must survive GC because the dict's NativeScanner traces them.
	for i := 0; i < 50; i++ {
		v := rt.NewStr([]byte(fmt.Sprintf("value-%d", i)))
		rt.DictSet(d, heap.IntVal(int64(i)), heap.RefVal(v))
	}
	h.Major()
	for i := 0; i < 50; i++ {
		v, ok := rt.DictGet(d, heap.IntVal(int64(i)))
		if !ok || !v.O.Live() {
			t.Fatalf("dict value %d lost after GC (ok=%v)", i, ok)
		}
	}
}
