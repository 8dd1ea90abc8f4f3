package heap

import (
	"math"
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
	h, _ := testHeap(true)
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
	h, _ := testHeap(true)
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
// run a full GC, and verify exactly the reachable objects survive. Under
// Debug the heap examines every object and each one's Live flag must equal
// its reachability; by default it examines none, and the old generation it
// counts must weigh exactly what is reachable.
func TestGCLivenessProperty(t *testing.T) {
	for _, debug := range []bool{true, false} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			// Full-size nursery: no collection may run while the graph is
			// under construction (roots are registered afterwards).
			cfg := DefaultConfig()
			cfg.Debug = debug
			h := New(cpu.NewDefault(), cfg)
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
			var reachBytes uint64
			queue := append([]*Obj(nil), roots...)
			for len(queue) > 0 {
				o := queue[0]
				queue = queue[1:]
				if reach[o] {
					continue
				}
				reach[o] = true
				reachBytes += o.Size()
				for _, v := range o.Fields {
					if v.Kind == KindRef && v.O != nil && !reach[v.O] {
						queue = append(queue, v.O)
					}
				}
			}

			h.Major()
			if !debug {
				if live := h.Stats().LiveAtMajor; live != reachBytes || h.OldBytes() != reachBytes {
					t.Logf("seed %d: %d bytes live at major, %d old, %d reachable", seed, live, h.OldBytes(), reachBytes)
					return false
				}
				return true
			}
			for _, o := range objs {
				if o.Live() != reach[o] {
					t.Logf("seed %d: object live=%v reachable=%v", seed, o.Live(), reach[o])
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatalf("debug=%v: %v", debug, err)
		}
	}
}

// freeCounter is a Tracer that counts what it is told.
type freeCounter struct{ allocs, frees int }

func (c *freeCounter) TraceAlloc(*Obj, AllocKind) { c.allocs++ }
func (c *freeCounter) TraceFree(*Obj)             { c.frees++ }

// simulate runs one random program of allocations, stores, drops and
// collections on h and returns what the heap and its machine counted. The
// program also stores back objects it dropped earlier, whether or not a
// collection has found them dead since, as a VM holding a value no root
// reports does. traceAt attaches a freeCounter before that step (-1:
// never).
func simulate(h *Heap, s *testStream, seed int64, traceAt int) (Stats, cpu.Counters, *freeCounter) {
	rng := rand.New(rand.NewSource(seed))
	obj, str, vec := h.NewShape("obj", 2), h.NewShape("str", 0), h.NewShape("vec", 0)
	// The objects in slots are the roots; each is reachable from its
	// allocation on, so the program only ever accesses live objects.
	var slots [16]*Obj
	var dropped []*Obj
	h.AddRoots(RootFunc(func(visit func(*Obj)) {
		for _, o := range slots {
			visit(o)
		}
	}))
	drop := func(i int) {
		if slots[i] != nil {
			dropped = append(dropped, slots[i])
			if len(dropped) > 64 {
				dropped = dropped[1:]
			}
		}
		slots[i] = nil
	}
	tr := &freeCounter{}
	for step := 0; step < 6000; step++ {
		if step == traceAt {
			h.SetTracer(tr)
		}
		i := rng.Intn(len(slots))
		switch r := rng.Intn(100); {
		case r < 35:
			drop(i)
			switch rng.Intn(3) {
			case 0:
				slots[i] = h.AllocObj(obj, 2)
			case 1:
				slots[i] = h.AllocBytes(str, rng.Intn(200))
			default:
				slots[i] = h.AllocElems(vec, 0, rng.Intn(12))
			}
		case r < 80:
			o := slots[i]
			if o == nil || o.Shape == str {
				continue
			}
			var v Value
			switch k := rng.Intn(10); {
			case k < 3:
				v = RefVal(h.AllocObj(obj, 2))
			case k < 6:
				v = RefVal(slots[rng.Intn(len(slots))])
			case k < 8 && len(dropped) > 0:
				v = RefVal(dropped[rng.Intn(len(dropped))])
			default:
				v = IntVal(int64(k))
			}
			if o.Shape == obj {
				h.WriteField(o, rng.Intn(2), v)
			} else {
				h.AppendElem(o, v)
			}
		case r < 95:
			drop(i)
		case r < 98:
			h.Minor()
		default:
			h.Major()
		}
	}
	h.Major()
	return h.Stats(), s.Total(), tr
}

// TestDebugHeapSimulatesTheSame: Debug and a tracer add per-object lists
// beside the generation counts and change nothing simulated. The same
// program on a default heap, a Debug heap, a heap traced from its first
// allocation and one traced from midway (as the recorder attaches after VM
// bootstrap) gives equal statistics and equal machine totals, cycles
// compared by bits.
func TestDebugHeapSimulatesTheSame(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		h0, s0 := testHeap(false)
		base, baseTotal, _ := simulate(h0, s0, seed, -1)
		if base.Major == 0 || base.CollectedYoung == 0 || base.PromotedBytes == 0 {
			t.Fatalf("seed %d: the program exercised too little: %+v", seed, base)
		}
		for _, v := range []struct {
			name    string
			debug   bool
			traceAt int
		}{{"debug", true, -1}, {"traced", false, 0}, {"traced from midway", false, 3000}} {
			h, s := testHeap(v.debug)
			st, total, tr := simulate(h, s, seed, v.traceAt)
			if st != base {
				t.Errorf("seed %d, %s heap: stats %+v, default heap %+v", seed, v.name, st, base)
			}
			if math.Float64bits(total.Cycles) != math.Float64bits(baseTotal.Cycles) {
				t.Errorf("seed %d, %s heap: %v cycles, default heap %v", seed, v.name, total.Cycles, baseTotal.Cycles)
			}
			want := baseTotal
			total.Cycles, want.Cycles = 0, 0
			if total != want {
				t.Errorf("seed %d, %s heap: machine totals %+v, default heap %+v", seed, v.name, total, want)
			}
			if v.traceAt >= 0 && (tr.allocs == 0 || tr.frees == 0) {
				t.Errorf("seed %d, %s heap: tracer saw %d allocations and %d deaths", seed, v.name, tr.allocs, tr.frees)
			}
		}
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
