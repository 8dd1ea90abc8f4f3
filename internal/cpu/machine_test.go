package cpu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"metajit/internal/core"
	"metajit/internal/isa"
)

func TestOpsAccounting(t *testing.T) {
	m := NewDefault()
	m.Ops(isa.ALU, 100)
	tot := m.Total()
	if tot.Instrs != 100 {
		t.Fatalf("Instrs = %d, want 100", tot.Instrs)
	}
	if tot.ClassCounts[isa.ALU] != 100 {
		t.Fatalf("ALU count = %d", tot.ClassCounts[isa.ALU])
	}
	if tot.Cycles != 25 { // 100 * 0.25
		t.Fatalf("Cycles = %v, want 25", tot.Cycles)
	}
}

// TestEveryRetireMethodCountsItsClass: each retire method retires one
// instruction (Ops: n) under its own class and nowhere else.
func TestEveryRetireMethodCountsItsClass(t *testing.T) {
	m := NewDefault()
	m.Ops(isa.ALU, 3)
	m.Load(0x1000)
	m.Store(0x1008)
	m.Branch(0x400000, true)
	m.Branch(0x400004, false)
	m.OpsBranch(2, 0x400008, false)
	m.Indirect(0x400008, 0x500000)
	m.CallDirect(0x40000c)
	m.CallIndirect(0x400010, 0x500040)
	m.Return()
	m.Annot(core.TagDispatch, 1)

	var want [isa.NumClasses]uint64
	want[isa.ALU], want[isa.Load], want[isa.Store], want[isa.Branch] = 5, 1, 1, 3
	want[isa.IndirectJump], want[isa.Call], want[isa.IndirectCall], want[isa.Ret], want[isa.Nop] = 1, 1, 1, 1, 1
	tot := m.Total()
	if tot.ClassCounts != want {
		t.Errorf("class counts = %v, want %v", tot.ClassCounts, want)
	}
	if tot.Instrs != 15 || m.TotalInstrs() != 15 {
		t.Errorf("Instrs = %d (running total %d), want 15", tot.Instrs, m.TotalInstrs())
	}
	if tot.CondBr != 3 || tot.IndBr != 2 || tot.Returns != 1 || tot.Loads != 1 || tot.Stores != 1 {
		t.Errorf("event counts wrong: %+v", tot)
	}
}

func TestPhaseAccountingSeparation(t *testing.T) {
	m := NewDefault()
	m.SetPhase(core.PhaseInterp)
	m.Ops(isa.ALU, 10)
	m.SetPhase(core.PhaseJIT)
	m.Ops(isa.ALU, 30)
	if got := m.PhaseCounters(core.PhaseInterp).Instrs; got != 10 {
		t.Errorf("interp instrs = %d, want 10", got)
	}
	if got := m.PhaseCounters(core.PhaseJIT).Instrs; got != 30 {
		t.Errorf("jit instrs = %d, want 30", got)
	}
	if got := m.Total().Instrs; got != 40 {
		t.Errorf("total instrs = %d, want 40", got)
	}
}

func TestGSharePredictsLoopBranch(t *testing.T) {
	// A loop-closing branch taken 999 times then not taken should be
	// almost always predicted after warmup.
	m := NewDefault()
	pc := uint64(0x400100)
	for i := 0; i < 1000; i++ {
		m.Branch(pc, i != 999)
	}
	tot := m.Total()
	if tot.CondBr != 1000 {
		t.Fatalf("CondBr = %d", tot.CondBr)
	}
	if tot.CondMiss > 20 {
		t.Errorf("loop branch mispredicted %d/1000 times; predictor not learning", tot.CondMiss)
	}
}

func TestGShareRandomBranchMispredicts(t *testing.T) {
	m := NewDefault()
	rng := rand.New(rand.NewSource(42))
	pc := uint64(0x400200)
	n := 20000
	for i := 0; i < n; i++ {
		m.Branch(pc, rng.Intn(2) == 0)
	}
	miss := m.Total().CondMiss
	// A random branch should mispredict roughly half the time.
	if miss < uint64(n)/3 || miss > uint64(n)*2/3 {
		t.Errorf("random branch miss = %d/%d, want ~50%%", miss, n)
	}
}

func TestBTBMonomorphicVsPolymorphic(t *testing.T) {
	mMono := NewDefault()
	mPoly := NewDefault()
	pc := uint64(0x400300)
	for i := 0; i < 1000; i++ {
		mMono.Indirect(pc, 0x500000)                // same target
		mPoly.Indirect(pc, 0x500000+uint64(i%7)*64) // rotating targets
	}
	mono := mMono.Total().IndMiss
	poly := mPoly.Total().IndMiss
	if mono > 5 {
		t.Errorf("monomorphic indirect missed %d/1000", mono)
	}
	if poly < 500 {
		t.Errorf("polymorphic indirect missed only %d/1000; BTB too clever", poly)
	}
}

func TestRASMatchedCallsPredict(t *testing.T) {
	m := NewDefault()
	for i := 0; i < 100; i++ {
		m.CallDirect(0x400400)
		m.Return()
	}
	if miss := m.Total().RetMiss; miss != 0 {
		t.Errorf("matched call/return mispredicted %d times", miss)
	}
}

func TestRASOverflowMispredicts(t *testing.T) {
	m := NewDefault()
	depth := DefaultParams().RASDepth
	for i := 0; i < depth*3; i++ {
		m.CallDirect(uint64(0x400500 + i*4))
	}
	for i := 0; i < depth*3; i++ {
		m.Return()
	}
	miss := m.Total().RetMiss
	if miss == 0 {
		t.Errorf("deep recursion should overflow the RAS")
	}
	// The top `depth` returns should still predict.
	if miss > uint64(depth*3-depth/2) {
		t.Errorf("too many return misses: %d", miss)
	}
}

func TestCacheLocality(t *testing.T) {
	mHot := NewDefault()
	mCold := NewDefault()
	for i := 0; i < 10000; i++ {
		mHot.Load(isa.RegionHeap + uint64(i%8)*64) // 8 hot lines
		mCold.Load(isa.RegionHeap + uint64(i)*4096)
	}
	hot := mHot.Total()
	cold := mCold.Total()
	if hot.L1Miss > 16 {
		t.Errorf("hot loads missed %d times", hot.L1Miss)
	}
	if cold.L1Miss < 9000 {
		t.Errorf("streaming loads missed only %d/10000", cold.L1Miss)
	}
	if cold.Cycles <= hot.Cycles {
		t.Errorf("cache misses must cost cycles: cold=%v hot=%v", cold.Cycles, hot.Cycles)
	}
}

func TestAnnotationDispatch(t *testing.T) {
	m := NewDefault()
	var got []core.Annotation
	m.Observe(core.ObserverFunc(func(a core.Annotation, instrs, cycles uint64) {
		got = append(got, a)
		if instrs == 0 {
			t.Errorf("observer saw zero instruction count")
		}
	}))
	m.Ops(isa.ALU, 5)
	m.Annot(core.TagJITEnter, 42)
	m.Annot(core.TagJITLeave, 0)
	if len(got) != 2 {
		t.Fatalf("observer saw %d annotations, want 2", len(got))
	}
	if got[0].Tag != core.TagJITEnter || got[0].Arg != 42 {
		t.Errorf("annotation 0 = %+v", got[0])
	}
	// The annotation nop itself must retire as an instruction.
	if m.Total().ClassCounts[isa.Nop] != 2 {
		t.Errorf("nop count = %d", m.Total().ClassCounts[isa.Nop])
	}
}

func TestCountersAddAndDerived(t *testing.T) {
	a := Counters{Instrs: 1000, Cycles: 500, CondBr: 100, CondMiss: 10}
	b := Counters{Instrs: 1000, Cycles: 500, IndBr: 50, IndMiss: 5}
	a.Add(b)
	if a.Instrs != 2000 || a.Cycles != 1000 {
		t.Fatalf("Add wrong: %+v", a)
	}
	if got := a.IPC(); got != 2.0 {
		t.Errorf("IPC = %v, want 2", got)
	}
	if got := a.Branches(); got != 150 {
		t.Errorf("Branches = %d", got)
	}
	if got := a.Mispredicts(); got != 15 {
		t.Errorf("Mispredicts = %d", got)
	}
	if got := a.MPKI(); got != 7.5 {
		t.Errorf("MPKI = %v, want 7.5", got)
	}
	if got := a.MissRate(); got != 0.1 {
		t.Errorf("MissRate = %v, want 0.1", got)
	}
}

func TestZeroCountersDerivedMetricsSafe(t *testing.T) {
	var c Counters
	if c.IPC() != 0 || c.MPKI() != 0 || c.MissRate() != 0 || c.BranchRate() != 0 {
		t.Errorf("zero counters must not divide by zero")
	}
}

// Property: instruction accounting is additive — emitting the same events
// into one machine or summing two machines' totals gives identical counts.
func TestInstrCountAdditiveProperty(t *testing.T) {
	f := func(nALU, nLoad uint16, seed int64) bool {
		m1 := NewDefault()
		m2a := NewDefault()
		m2b := NewDefault()
		m1.Ops(isa.ALU, int(nALU))
		m2a.Ops(isa.ALU, int(nALU))
		m1.Ops(isa.Load, int(nLoad))
		m2b.Ops(isa.Load, int(nLoad))
		var sum Counters
		sum.Add(m2a.Total())
		sum.Add(m2b.Total())
		return m1.Total().Instrs == sum.Instrs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStaticPredictorWorse(t *testing.T) {
	dyn := New(DefaultParams())
	sta := New(StaticPredictorParams())
	pc := uint64(0x400600)
	for i := 0; i < 1000; i++ {
		taken := i%3 != 0
		dyn.Branch(pc, taken)
		sta.Branch(pc, taken)
	}
	if dyn.Total().CondMiss >= sta.Total().CondMiss {
		t.Errorf("dynamic predictor (%d misses) should beat static (%d misses)",
			dyn.Total().CondMiss, sta.Total().CondMiss)
	}
}

// TestNewClampsPredictorGeometry: a machine asked for 64-bit predictor
// tables and a 100-bit history is built at MaxPredictorBits and 64 and
// runs. Unclamped, 1<<64 entries wrap to an empty table and the first
// branch panics with an index out of range.
func TestNewClampsPredictorGeometry(t *testing.T) {
	p := DefaultParams()
	p.GShareBits, p.HistoryBits, p.BTBBits = 64, 100, 64
	m := New(p)
	for i := 0; i < 1000; i++ {
		m.Branch(isa.RegionVMText+uint64(i%17)*4, i%3 == 0)
		m.Indirect(isa.RegionVMText+0x100, isa.RegionVMText+uint64(i%5)*64)
	}
	if got := m.Params(); got.GShareBits != MaxPredictorBits || got.BTBBits != MaxPredictorBits || got.HistoryBits != 64 {
		t.Fatalf("modeled geometry: gshare %d btb %d history %d bits, want %d/%d/64",
			got.GShareBits, got.BTBBits, got.HistoryBits, MaxPredictorBits, MaxPredictorBits)
	}
	if tot := m.Total(); tot.CondBr != 1000 || tot.IndBr != 1000 || tot.CondMiss == 0 || tot.CondMiss == 1000 {
		t.Fatalf("clamped predictor retired %+v", tot)
	}
}
