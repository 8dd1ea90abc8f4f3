package heap

import (
	"math/rand"
	"testing"
	"testing/quick"

	"metajit/internal/core"
	"metajit/internal/cpu"
	"metajit/internal/isa"
)

// testStream is the machine a test heap retires into together with every
// annotation it retired; class counts are the machine's totals.
type testStream struct {
	*cpu.Machine
	Annotations []core.Annotation
}

func newTestStream() *testStream {
	s := &testStream{Machine: cpu.NewDefault()}
	s.Observe(core.ObserverFunc(func(a core.Annotation, _, _ uint64) {
		s.Annotations = append(s.Annotations, a)
	}))
	return s
}

func (s *testStream) count(c isa.Class) uint64 { return s.Total().ClassCounts[c] }

func testHeap(debug bool) (*Heap, *testStream) {
	s := newTestStream()
	cfg := DefaultConfig()
	cfg.NurserySize = 4 << 10 // tiny nursery so tests trigger GC
	cfg.MajorThreshold = 32 << 10
	cfg.Debug = debug
	return New(s.Machine, cfg), s
}

func TestValueBasics(t *testing.T) {
	if !IntVal(3).Truthy() || IntVal(0).Truthy() {
		t.Errorf("int truthiness wrong")
	}
	if Nil.Truthy() || !True.Truthy() || False.Truthy() {
		t.Errorf("nil/bool truthiness wrong")
	}
	if !FloatVal(1.5).Truthy() || FloatVal(0).Truthy() {
		t.Errorf("float truthiness wrong")
	}
	if !IntVal(4).Eq(IntVal(4)) || IntVal(4).Eq(IntVal(5)) || IntVal(4).Eq(FloatVal(4)) {
		t.Errorf("Eq wrong for ints")
	}
	if !Nil.Eq(Nil) || Nil.Eq(False) {
		t.Errorf("Eq wrong for nil")
	}
	if IntVal(7).String() != "7" || Nil.String() != "nil" {
		t.Errorf("String() wrong")
	}
}

func TestAllocAndFieldAccess(t *testing.T) {
	h, s := testHeap(true)
	sh := h.NewShape("point", 2)
	o := h.AllocObj(sh, 2)
	h.WriteField(o, 0, IntVal(3))
	h.WriteField(o, 1, IntVal(4))
	if got := h.ReadField(o, 0); !got.Eq(IntVal(3)) {
		t.Fatalf("field 0 = %v", got)
	}
	if got := h.ReadField(o, 1); !got.Eq(IntVal(4)) {
		t.Fatalf("field 1 = %v", got)
	}
	if s.count(isa.Load) < 2 || s.count(isa.Store) < 3 {
		t.Errorf("accesses did not emit memory traffic: %+v", s.Total().ClassCounts)
	}
	if o.Addr() < isa.RegionHeap {
		t.Errorf("object address %#x outside heap region", o.Addr())
	}
}

func TestElemsAndGrow(t *testing.T) {
	h, _ := testHeap(true)
	sh := h.NewShape("list", 1)
	o := h.AllocElems(sh, 1, 4)
	for i := 0; i < 4; i++ {
		h.WriteElem(o, i, IntVal(int64(i*10)))
	}
	h.GrowElems(o, 16)
	for i := 0; i < 4; i++ {
		if got := h.ReadElem(o, i); !got.Eq(IntVal(int64(i * 10))) {
			t.Fatalf("elem %d = %v after grow", i, got)
		}
	}
	if len(o.Elems) != 16 {
		t.Fatalf("len after grow = %d", len(o.Elems))
	}
}

func TestMinorCollectsGarbage(t *testing.T) {
	h, _ := testHeap(false)
	sh := h.NewShape("node", 1)
	var root *Obj
	h.AddRoots(RootFunc(func(visit func(*Obj)) {
		if root != nil {
			visit(root)
		}
	}))
	root = h.AllocObj(sh, 1)
	// Allocate enough garbage to force several minor collections.
	for i := 0; i < 1000; i++ {
		h.AllocObj(sh, 1)
	}
	st := h.Stats()
	if st.Minor == 0 {
		t.Fatalf("no minor GC ran after nursery overflow")
	}
	if st.CollectedYoung == 0 {
		t.Fatalf("garbage survived: collected=%d", st.CollectedYoung)
	}
	if !root.Live() || !root.Old() {
		t.Fatalf("root object should survive and be promoted: live=%v old=%v", root.Live(), root.Old())
	}
}

func TestReachableChainSurvives(t *testing.T) {
	h, _ := testHeap(true)
	sh := h.NewShape("node", 1)
	var root *Obj
	h.AddRoots(RootFunc(func(visit func(*Obj)) {
		if root != nil {
			visit(root)
		}
	}))
	// Build a linked list of 50 nodes.
	root = h.AllocObj(sh, 1)
	cur := root
	for i := 0; i < 50; i++ {
		n := h.AllocObj(sh, 1)
		h.WriteField(cur, 0, RefVal(n))
		cur = n
	}
	h.Minor()
	// Walk the whole chain; debug mode panics on dead-object access.
	n := 0
	for v := RefVal(root); v.Kind == KindRef && v.O != nil; v = h.ReadField(v.O, 0) {
		if !v.O.Live() {
			t.Fatalf("chain node %d dead after GC", n)
		}
		n++
	}
	if n != 51 {
		t.Fatalf("chain length after GC = %d, want 51", n)
	}
}

func TestWriteBarrierKeepsYoungAlive(t *testing.T) {
	h, _ := testHeap(true)
	sh := h.NewShape("node", 1)
	var root *Obj
	h.AddRoots(RootFunc(func(visit func(*Obj)) {
		if root != nil {
			visit(root)
		}
	}))
	root = h.AllocObj(sh, 1)
	h.Minor() // promote root to old generation
	if !root.Old() {
		t.Fatalf("root not promoted")
	}
	// Store a young object into the old root: only the write barrier's
	// remembered set can keep it alive across the next minor GC.
	young := h.AllocObj(sh, 1)
	h.WriteField(root, 0, RefVal(young))
	h.Minor()
	if !young.Live() {
		t.Fatalf("old->young reference lost: write barrier broken")
	}
}

func TestMajorCollectsOldGarbage(t *testing.T) {
	h, _ := testHeap(false)
	sh := h.NewShape("blob", 8)
	live := make([]*Obj, 0, 4)
	h.AddRoots(RootFunc(func(visit func(*Obj)) {
		for _, o := range live {
			visit(o)
		}
	}))
	for i := 0; i < 4; i++ {
		live = append(live, h.AllocObj(sh, 8))
	}
	// Create lots of objects that survive a minor GC (via a temporary
	// root) and then become garbage, filling the old generation.
	var tmp []*Obj
	h.AddRoots(RootFunc(func(visit func(*Obj)) {
		for _, o := range tmp {
			visit(o)
		}
	}))
	for round := 0; round < 40; round++ {
		tmp = nil
		for i := 0; i < 100; i++ {
			tmp = append(tmp, h.AllocObj(sh, 8))
		}
		h.Minor() // promotes tmp to old
	}
	tmp = nil
	h.Major()
	st := h.Stats()
	if st.Major == 0 {
		t.Fatalf("no major GC ran")
	}
	for _, o := range live {
		if !o.Live() {
			t.Fatalf("live root object collected by major GC")
		}
	}
	if h.OldBytes() > 100*8*10*8 {
		t.Errorf("old generation did not shrink: %d bytes", h.OldBytes())
	}
}

func TestDeadObjectAccessPanicsInDebug(t *testing.T) {
	h, _ := testHeap(true)
	sh := h.NewShape("node", 1)
	h.AddRoots(RootFunc(func(visit func(*Obj)) {}))
	o := h.AllocObj(sh, 1)
	h.Minor() // o is unreachable -> dead
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on dead-object access")
		}
	}()
	h.ReadField(o, 0)
}

func TestGCEmitsAnnotations(t *testing.T) {
	h, s := testHeap(false)
	sh := h.NewShape("n", 1)
	h.AddRoots(RootFunc(func(visit func(*Obj)) {}))
	for i := 0; i < 500; i++ {
		h.AllocObj(sh, 1)
	}
	h.Major()
	var seen = map[core.Tag]int{}
	for _, a := range s.Annotations {
		seen[a.Tag]++
	}
	for _, tag := range []core.Tag{core.TagGCMinorStart, core.TagGCMinorEnd, core.TagGCMajorStart, core.TagGCMajorEnd} {
		if seen[tag] == 0 {
			t.Errorf("missing annotation %v", tag)
		}
	}
	if seen[core.TagGCMinorStart] != seen[core.TagGCMinorEnd] {
		t.Errorf("unbalanced minor GC annotations: %v", seen)
	}
}

// Property test: build a random object graph, pick a random subset of roots,
// run a full GC, and verify exactly the reachable objects survive.
func TestGCLivenessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Full-size nursery: no collection may run while the graph is
		// under construction (roots are registered afterwards).
		h := New(cpu.NewDefault(), DefaultConfig())
		sh := h.NewShape("n", 3)

		const n = 120
		objs := make([]*Obj, n)
		for i := range objs {
			objs[i] = h.AllocObj(sh, 3)
		}
		// Random edges.
		for i := range objs {
			for f := 0; f < 3; f++ {
				if rng.Intn(2) == 0 {
					h.WriteField(objs[i], f, RefVal(objs[rng.Intn(n)]))
				}
			}
		}
		// Random roots.
		var roots []*Obj
		for _, o := range objs {
			if rng.Intn(4) == 0 {
				roots = append(roots, o)
			}
		}
		h.AddRoots(RootFunc(func(visit func(*Obj)) {
			for _, o := range roots {
				visit(o)
			}
		}))

		// Expected reachability via independent BFS over Go pointers.
		reach := map[*Obj]bool{}
		queue := append([]*Obj(nil), roots...)
		for len(queue) > 0 {
			o := queue[0]
			queue = queue[1:]
			if reach[o] {
				continue
			}
			reach[o] = true
			for _, v := range o.Fields {
				if v.Kind == KindRef && v.O != nil && !reach[v.O] {
					queue = append(queue, v.O)
				}
			}
		}

		h.Major()
		for _, o := range objs {
			if o.Live() != reach[o] {
				t.Logf("seed %d: object live=%v reachable=%v", seed, o.Live(), reach[o])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNativeScannerTraced(t *testing.T) {
	h, _ := testHeap(true)
	sh := h.NewShape("holder", 0)
	var root *Obj
	h.AddRoots(RootFunc(func(visit func(*Obj)) {
		if root != nil {
			visit(root)
		}
	}))
	root = h.AllocObj(sh, 0)
	inner := h.AllocObj(sh, 0)
	root.Native = &nativeBox{ref: inner}
	h.Major()
	if !inner.Live() {
		t.Fatalf("object referenced only from Native payload was collected")
	}
}

type nativeBox struct{ ref *Obj }

func (b *nativeBox) ScanRefs(visit func(*Obj)) { visit(b.ref) }

func TestPromotionChangesAddress(t *testing.T) {
	h, _ := testHeap(true)
	sh := h.NewShape("n", 1)
	var root *Obj
	h.AddRoots(RootFunc(func(visit func(*Obj)) { visit(root) }))
	root = h.AllocObj(sh, 1)
	before := root.Addr()
	h.Minor()
	if root.Addr() == before {
		t.Errorf("promotion should move the object to a new simulated address")
	}
}

func TestAppendElemAmortized(t *testing.T) {
	h, s := testHeap(true)
	sh := h.NewShape("list", 0)
	var root *Obj
	h.AddRoots(RootFunc(func(visit func(*Obj)) { visit(root) }))
	root = h.AllocElems(sh, 0, 0)
	for i := 0; i < 500; i++ {
		h.AppendElem(root, IntVal(int64(i)))
	}
	if len(root.Elems) != 500 {
		t.Fatalf("len = %d", len(root.Elems))
	}
	for i := 0; i < 500; i++ {
		if root.Elems[i].I != int64(i) {
			t.Fatalf("elem %d = %v", i, root.Elems[i])
		}
	}
	// Amortized growth: far fewer reallocation copies than appends.
	if s.count(isa.Store) > 3000 {
		t.Errorf("append emitted %d stores for 500 appends; growth not amortized", s.count(isa.Store))
	}
	// Survives GC.
	h.Minor()
	if !root.Live() || root.Elems[499].I != 499 {
		t.Fatalf("list corrupted by GC")
	}
}

func TestGrowFieldsPreservesValues(t *testing.T) {
	h, _ := testHeap(true)
	sh := h.NewShape("obj", 1)
	var root *Obj
	h.AddRoots(RootFunc(func(visit func(*Obj)) { visit(root) }))
	root = h.AllocObj(sh, 1)
	h.WriteField(root, 0, IntVal(7))
	h.GrowFields(root, 5)
	if len(root.Fields) != 5 {
		t.Fatalf("fields = %d", len(root.Fields))
	}
	if root.Fields[0].I != 7 {
		t.Fatalf("field 0 lost: %v", root.Fields[0])
	}
	h.WriteField(root, 4, IntVal(9))
	h.Minor()
	if h.ReadField(root, 4).I != 9 || h.ReadField(root, 0).I != 7 {
		t.Fatalf("fields corrupted after GC")
	}
	// Growing to a smaller size is a no-op.
	h.GrowFields(root, 2)
	if len(root.Fields) != 5 {
		t.Fatalf("shrunk to %d", len(root.Fields))
	}
}

func TestRawAllocDistinct(t *testing.T) {
	h, _ := testHeap(false)
	a := h.RawAlloc(64)
	b := h.RawAlloc(64)
	if a == b || b < a+64 {
		t.Errorf("raw allocations overlap: %#x %#x", a, b)
	}
}
