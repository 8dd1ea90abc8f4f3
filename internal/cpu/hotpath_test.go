// Tests and host micro-benchmarks for the simulator's retire hot paths:
// batched Block accounting, the running whole-run totals, parameter
// normalization, and the store miss-cost model.
package cpu

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"metajit/internal/core"
	"metajit/internal/isa"
)

func TestStoreL2MissChargesBothLevels(t *testing.T) {
	m := NewDefault()
	m.Store(0x1000) // cold caches: misses L1 and L2
	p := m.Params()
	want := CyclesOf(Units(p.IssueCost[isa.Store]) + Units(p.L1MissPenalty+p.L2MissPenalty)/2)
	if got := m.Total().Cycles; got != want {
		t.Fatalf("L2-miss store cycles = %v, want %v (L1+L2 components, half-hidden)", got, want)
	}
	if tot := m.Total(); tot.L1Miss != 1 || tot.L2Miss != 1 {
		t.Fatalf("miss counts = L1:%d L2:%d, want 1/1", tot.L1Miss, tot.L2Miss)
	}
}

func TestStoreL2HitChargesL1Component(t *testing.T) {
	m := NewDefault()
	m.Load(0x1000) // install in L1 and L2
	// Drive the line out of the (smaller) L1 by touching an address that
	// aliases its L1 set but a different L2 set, then store to the
	// original, which must hit L2.
	p := m.Params()
	alias := uint64(0x1000) + uint64(p.L1Size)
	for alias%uint64(p.L2Size) == 0x1000%uint64(p.L2Size) {
		alias += uint64(p.L1Size)
	}
	m.Load(alias) // evicts 0x1000 from L1 (same set), L2 keeps it
	before := m.totUnits
	m.Store(0x1000)
	got := m.totUnits - before
	want := Units(p.IssueCost[isa.Store]) + Units(p.L1MissPenalty)/2
	if got != want {
		t.Fatalf("L2-hit store cycles = %v, want %v", got, want)
	}
}

func TestBlockMatchesOps(t *testing.T) {
	mix := []isa.ClassCount{isa.CC(isa.ALU, 7), isa.CC(isa.Load, 3), isa.CC(isa.Store, 2), isa.CC(isa.Jump, 1)}
	b := isa.NewBlock(mix...)

	mb, mo := NewDefault(), NewDefault()
	for i := 0; i < 10; i++ {
		mb.Block(b)
		for _, cc := range mix {
			mo.Ops(cc.Class, int(cc.N))
		}
	}
	tb, to := mb.Total(), mo.Total()
	if tb.Instrs != to.Instrs {
		t.Fatalf("Instrs: block %d vs ops %d", tb.Instrs, to.Instrs)
	}
	if tb.ClassCounts != to.ClassCounts {
		t.Fatalf("ClassCounts diverge: %v vs %v", tb.ClassCounts, to.ClassCounts)
	}
	if tb.Cycles != to.Cycles {
		t.Fatalf("Cycles: block %v vs ops %v", tb.Cycles, to.Cycles)
	}
}

// TestRunningTotalsMatchPhaseSums drives a mixed-phase stream through
// every retire path and checks the O(1) running totals against the
// grouped per-phase sums. Both are integers, so they are equal.
func TestRunningTotalsMatchPhaseSums(t *testing.T) {
	m := NewDefault()
	rng := rand.New(rand.NewSource(7))
	blk := isa.NewBlock(isa.CC(isa.ALU, 5), isa.CC(isa.Store, 2))
	for i := 0; i < 5000; i++ {
		m.SetPhase(core.Phase(rng.Intn(int(core.NumPhases))))
		switch rng.Intn(8) {
		case 0:
			m.Ops(isa.ALU, 1+rng.Intn(8))
		case 1:
			m.Block(blk)
		case 2:
			m.Load(rng.Uint64() % (1 << 22))
		case 3:
			m.Store(rng.Uint64() % (1 << 22))
		case 4:
			m.Branch(uint64(rng.Intn(64))*4, rng.Intn(2) == 0)
		case 5:
			m.CallDirect(uint64(rng.Intn(64)) * 8)
		case 6:
			m.Return()
		case 7:
			m.Annot(core.TagDispatch, uint64(i))
		}
	}
	tot := m.Total()
	if m.TotalInstrs() != tot.Instrs {
		t.Fatalf("TotalInstrs = %d, phase sum = %d", m.TotalInstrs(), tot.Instrs)
	}
	var units uint64
	for i := range m.byPhase {
		units += m.byPhase[i].Units
	}
	if m.totUnits != units || m.TotalCycles() != tot.Cycles {
		t.Fatalf("running total %d units (%v cycles), phase sum %d units (%v cycles)",
			m.totUnits, m.TotalCycles(), units, tot.Cycles)
	}
}

// TestPhaseViewAliasesLiveCounters pins the contract per-annotation
// observers rely on: the view is the phase's own counters, not a copy —
// it advances as that phase retires and stands still while another
// phase is active — and it always agrees with the by-value read.
func TestPhaseViewAliasesLiveCounters(t *testing.T) {
	m := NewDefault()
	interp, gc := m.PhaseView(core.PhaseInterp), m.PhaseView(core.PhaseGC)
	m.Ops(isa.ALU, 5)
	m.Load(0x40)
	if interp.Instrs != 6 || interp.Loads != 1 || gc.Instrs != 0 {
		t.Fatalf("view did not follow the live counters: interp %+v gc %+v", *interp, *gc)
	}
	m.SetPhase(core.PhaseGC)
	m.Branch(0x100, true)
	if interp.Instrs != 6 || gc.Instrs != 1 || gc.CondBr != 1 {
		t.Fatalf("view crossed phases: interp %+v gc %+v", *interp, *gc)
	}
	for ph := core.Phase(0); ph < core.NumPhases; ph++ {
		if m.PhaseView(ph).Read() != m.PhaseCounters(ph) {
			t.Fatalf("phase %s: view and by-value read disagree", ph)
		}
	}
}

// TestAnnotDetachedIsOneNop pins the detached annotation path: with no
// observer registered an annotation is exactly one nop retired into the
// current phase — no allocation, no other counter touched.
func TestAnnotDetachedIsOneNop(t *testing.T) {
	m := NewDefault()
	m.SetPhase(core.PhaseJIT)
	before := m.PhaseCounters(core.PhaseJIT)
	if n := testing.AllocsPerRun(100, func() { m.Annot(core.TagDispatch, 7) }); n != 0 {
		t.Fatalf("detached Annot allocates %v times per call", n)
	}
	runs := m.TotalInstrs() // AllocsPerRun's warm-up call included
	want := before
	want.Instrs += runs
	want.ClassCounts[isa.Nop] += runs
	want.Cycles = m.PhaseCounters(core.PhaseJIT).Cycles
	if got := m.PhaseCounters(core.PhaseJIT); got != want {
		t.Fatalf("detached Annot touched more than the nop:\n got %+v\nwant %+v", got, want)
	}
	if got, want := m.totUnits, runs*Units(m.Params().IssueCost[isa.Nop]); got != want {
		t.Fatalf("detached Annot units = %d, want %d nops = %d", got, runs, want)
	}
	if got := m.Total(); got != m.PhaseCounters(core.PhaseJIT) {
		t.Fatalf("detached Annot retired outside the current phase: %+v", got)
	}
}

// TestShippedCostsAreWholeUnits: every cost of the shipped
// configurations converts to units without rounding, so the machine
// charges exactly the cost the parameters state.
func TestShippedCostsAreWholeUnits(t *testing.T) {
	for name, p := range map[string]Params{"default": DefaultParams(), "static": StaticPredictorParams()} {
		costs := append(p.IssueCost[:], p.MispredictPenalty, p.LoadUseStall, p.L1MissPenalty, p.L2MissPenalty)
		for i, c := range costs {
			if CyclesOf(Units(c)) != c {
				t.Errorf("%s cost %d = %v is not a whole number of units", name, i, c)
			}
		}
	}
}

func TestParamsNormalized(t *testing.T) {
	t.Run("defaults pass through", func(t *testing.T) {
		p := DefaultParams()
		if p.Normalized() != p {
			t.Fatalf("DefaultParams changed under Normalized: %+v", p.Normalized())
		}
	})
	t.Run("size smaller than line", func(t *testing.T) {
		p := DefaultParams()
		p.L1Size, p.L1Line = 16, 64
		n := p.Normalized()
		if n.L1Size != 64 || n.L1Line != 64 {
			t.Fatalf("got size %d line %d, want 64/64", n.L1Size, n.L1Line)
		}
	})
	t.Run("non-power-of-two sets round up", func(t *testing.T) {
		p := DefaultParams()
		p.L1Size, p.L1Line = 3*64, 64 // 3 sets
		n := p.Normalized()
		if n.L1Size != 4*64 {
			t.Fatalf("size = %d, want %d (4 sets)", n.L1Size, 4*64)
		}
	})
	t.Run("tiny odd line rounds up", func(t *testing.T) {
		p := DefaultParams()
		p.L2Size, p.L2Line = 100, 3
		n := p.Normalized()
		if n.L2Line != 8 || n.L2Size != 128 {
			t.Fatalf("got size %d line %d, want 128/8", n.L2Size, n.L2Line)
		}
	})
	t.Run("predictor tables clamp", func(t *testing.T) {
		p := DefaultParams()
		p.GShareBits, p.BTBBits, p.HistoryBits = 40, MaxPredictorBits, 65
		n := p.Normalized()
		if n.GShareBits != MaxPredictorBits || n.BTBBits != MaxPredictorBits || n.HistoryBits != 64 {
			t.Fatalf("got gshare %d btb %d history %d bits, want %d/%d/64",
				n.GShareBits, n.BTBBits, n.HistoryBits, MaxPredictorBits, MaxPredictorBits)
		}
	})
	t.Run("costs round to the unit", func(t *testing.T) {
		p := DefaultParams()
		p.IssueCost[isa.ALU], p.LoadUseStall, p.MispredictPenalty = 0.2504, 0.3496, -2
		n := p.Normalized()
		if n.IssueCost[isa.ALU] != 0.25 || n.LoadUseStall != 0.35 || n.MispredictPenalty != 0 {
			t.Fatalf("got ALU %v, load-use %v, mispredict %v; want 0.25, 0.35, 0",
				n.IssueCost[isa.ALU], n.LoadUseStall, n.MispredictPenalty)
		}
	})
	t.Run("negative RAS depth clamps", func(t *testing.T) {
		p := DefaultParams()
		p.RASDepth = -3
		if n := p.Normalized(); n.RASDepth != 0 {
			t.Fatalf("RASDepth = %d, want 0", n.RASDepth)
		}
	})
}

func TestNewNormalizesDegenerateGeometry(t *testing.T) {
	p := DefaultParams()
	p.L1Size, p.L1Line = 16, 64 // pre-fix: size/line = 0 sets, mod-by-zero panic
	p.L2Size, p.L2Line = 3000, 48
	m := New(p) // must not panic
	for a := uint64(0); a < 4096; a += 8 {
		m.Load(a)
		m.Store(a)
	}
	got := m.Params()
	if got.L1Size != 64 || got.L2Size != 4096 || got.L2Line != 64 {
		t.Fatalf("normalized geometry = L1 %d/%d L2 %d/%d", got.L1Size, got.L1Line, got.L2Size, got.L2Line)
	}
}

func TestNewCachePanicsOnUnnormalizedGeometry(t *testing.T) {
	for _, g := range []struct{ size, line int }{{16, 64}, {3 * 64, 64}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newCache(%d, %d) did not panic", g.size, g.line)
				}
			}()
			newCache(g.size, g.line)
		}()
	}
}

func TestZeroBitGShare(t *testing.T) {
	p := DefaultParams()
	p.GShareBits, p.HistoryBits = 0, 0
	m := New(p)
	// Static not-taken: taken branches always mispredict, not-taken never.
	for i := 0; i < 100; i++ {
		m.Branch(0x40, true)
		m.Branch(0x80, false)
	}
	tot := m.Total()
	if tot.CondMiss != 100 {
		t.Fatalf("CondMiss = %d, want 100 (all taken branches mispredict)", tot.CondMiss)
	}
}

func TestRASDepthZero(t *testing.T) {
	p := DefaultParams()
	p.RASDepth = 0
	m := New(p)
	for i := 0; i < 10; i++ {
		m.CallDirect(uint64(i) * 4) // push is a no-op at depth 0
		m.Return()
	}
	if tot := m.Total(); tot.RetMiss != 10 {
		t.Fatalf("RetMiss = %d, want 10 (every pop on an empty RAS mispredicts)", tot.RetMiss)
	}
}

func TestRASRingOverwritesOldest(t *testing.T) {
	p := DefaultParams()
	p.RASDepth = 2
	m := New(p)
	m.CallDirect(0x10)
	m.CallDirect(0x20)
	m.CallDirect(0x30) // overflow: overwrites the 0x10 entry
	m.Return()         // matches 0x30's push
	m.Return()         // matches 0x20's push
	m.Return()         // stack empty: the 0x10 entry was overwritten
	if tot := m.Total(); tot.RetMiss != 1 {
		t.Fatalf("RetMiss = %d, want 1 (only the overwritten frame mispredicts)", tot.RetMiss)
	}
}

// ---- host micro-benchmarks (`make bench`; the committed numbers are
// the repository benchmark's cpu.*_ns rows, benchmark/micro.go) ----

func BenchmarkMachineOps(b *testing.B) {
	m := NewDefault()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Ops(isa.ALU, 4)
	}
}

// BenchmarkMachineOpsUnbatched retires the same mix as
// BenchmarkMachineBlock through per-class Ops calls — the before/after
// pair for the batched-retire path.
func BenchmarkMachineOpsUnbatched(b *testing.B) {
	m := NewDefault()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Ops(isa.ALU, 3)
		m.Ops(isa.Load, 2)
		m.Ops(isa.Store, 1)
	}
}

func BenchmarkMachineBlock(b *testing.B) {
	m := NewDefault()
	blk := isa.NewBlock(isa.CC(isa.ALU, 3), isa.CC(isa.Load, 2), isa.CC(isa.Store, 1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Block(blk)
	}
}

func BenchmarkMachineLoad(b *testing.B) {
	m := NewDefault()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Load(uint64(i) * 8)
	}
}

func BenchmarkMachineStore(b *testing.B) {
	m := NewDefault()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Store(uint64(i) * 8)
	}
}

func BenchmarkMachineBranch(b *testing.B) {
	m := NewDefault()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Branch(uint64(i&63)*4, i&3 == 0)
	}
}

func BenchmarkMachineAnnot(b *testing.B) {
	m := NewDefault()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Annot(core.TagDispatch, uint64(i))
	}
}

// TestOpsBranchMatchesOpsThenBranch: the fused guard retire is Ops(ALU, n)
// followed by Branch(pc, taken) exactly — every counter of every phase,
// the running totals and the predictor — over seeded sequences with
// n == 0 and phase switches between calls.
func TestOpsBranchMatchesOpsThenBranch(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	phases := []core.Phase{core.PhaseJIT, core.PhaseInterp, core.PhaseBlackhole}
	zeros := 0
	for seq := 0; seq < 2000; seq++ {
		fused, split := NewDefault(), NewDefault()
		for i := 0; i < 40; i++ {
			if rng.Intn(7) == 0 {
				p := phases[rng.Intn(len(phases))]
				fused.SetPhase(p)
				split.SetPhase(p)
			}
			// Another retire path in between, so the accumulators hold
			// values whose low bits a reordering would disturb.
			if rng.Intn(2) == 0 {
				addr := isa.RegionHeap + uint64(rng.Intn(1<<16))*8
				fused.Load(addr)
				split.Load(addr)
			}
			n := rng.Intn(3) // a guard's compare: 0 (guard_not_invalidated), 1 or 2
			if n == 0 {
				zeros++
			}
			pc := isa.RegionJITCode + uint64(rng.Intn(64))*4
			taken := rng.Intn(5) == 0
			fused.OpsBranch(n, pc, taken)
			split.Ops(isa.ALU, n)
			split.Branch(pc, taken)
		}
		if fused.TotalCycles() != split.TotalCycles() || fused.TotalInstrs() != split.TotalInstrs() {
			t.Fatalf("sequence %d: running totals diverge: %v/%d fused, %v/%d split", seq,
				fused.TotalCycles(), fused.TotalInstrs(), split.TotalCycles(), split.TotalInstrs())
		}
		for _, p := range core.AllPhases() {
			if f, s := fused.PhaseCounters(p), split.PhaseCounters(p); f != s {
				t.Fatalf("sequence %d, phase %s:\nfused %+v\nsplit %+v", seq, p, f, s)
			}
		}
		if fused.bp.history != split.bp.history || !bytes.Equal(fused.bp.table, split.bp.table) {
			t.Fatalf("sequence %d: predictor state diverges", seq)
		}
	}
	if zeros == 0 {
		t.Fatal("the sequences never retired a guard with n == 0")
	}
}

// phaseFlipper is the dispatch observer of the fused-entry tests: it logs
// the totals each annotation hands it and, on some annotations, switches
// the machine's phase — as a phase tracker does — so a fused entry that
// kept the pre-annotation phase would retire into the wrong counters. Its
// choice depends only on the totals, so the fused and the split machine
// flip alike while they agree.
type phaseFlipper struct {
	m   *Machine
	log [][2]uint64
}

func (f *phaseFlipper) OnAnnotation(_ core.Annotation, instrs, cycles uint64) {
	f.log = append(f.log, [2]uint64{instrs, cycles})
	if instrs%3 == 0 {
		f.m.SetPhase(core.Phase(cycles % uint64(core.NumPhases)))
	}
}

// fusedPair is a machine for a fused entry and one for the split calls it
// stands for, each with its own phaseFlipper on the dispatch tag.
type fusedPair struct {
	fused, split   *Machine
	fusedF, splitF *phaseFlipper
}

func newFusedPair() *fusedPair {
	p := &fusedPair{fused: NewDefault(), split: NewDefault()}
	p.fusedF = &phaseFlipper{m: p.fused}
	p.splitF = &phaseFlipper{m: p.split}
	p.fused.Observe(p.fusedF, core.TagDispatch)
	p.split.Observe(p.splitF, core.TagDispatch)
	return p
}

// interleave makes the same random phase switch and other retire on both
// machines, so the models hold state the fused entry must continue.
func (p *fusedPair) interleave(rng *rand.Rand) {
	if rng.Intn(5) == 0 {
		ph := core.Phase(rng.Intn(int(core.NumPhases)))
		p.fused.SetPhase(ph)
		p.split.SetPhase(ph)
	}
	switch rng.Intn(4) {
	case 0:
		addr := isa.RegionHeap + uint64(rng.Intn(1<<18))*8
		p.fused.Load(addr)
		p.split.Load(addr)
	case 1:
		pc, taken := isa.RegionVMText+uint64(rng.Intn(64))*4, rng.Intn(3) == 0
		p.fused.Branch(pc, taken)
		p.split.Branch(pc, taken)
	case 2:
		p.fused.Ops(isa.FPU, 1)
		p.split.Ops(isa.FPU, 1)
	}
}

// tableAddrs draws n load addresses from a small hot core and, one time in
// eight, from a 2 MB region, so the loads hit L1, hit L2 and miss both.
func tableAddrs(rng *rand.Rand, n int) []uint64 {
	loads := make([]uint64, n)
	for i := range loads {
		span := 16 << 10
		if rng.Intn(8) == 0 {
			span = 2 << 20
		}
		loads[i] = isa.RegionVMText + uint64(rng.Intn(span))&^7
	}
	return loads
}

// check fails unless the two machines agree exactly: every counter of
// every phase, both running totals, every model's state and the totals
// the dispatch observer was handed.
func (p *fusedPair) check(t *testing.T, seq int) {
	t.Helper()
	f, s := p.fused, p.split
	if f.TotalCycles() != s.TotalCycles() || f.TotalInstrs() != s.TotalInstrs() {
		t.Fatalf("sequence %d: running totals diverge: %v/%d fused, %v/%d split", seq,
			f.TotalCycles(), f.TotalInstrs(), s.TotalCycles(), s.TotalInstrs())
	}
	for _, ph := range core.AllPhases() {
		if fc, sc := f.PhaseCounters(ph), s.PhaseCounters(ph); fc != sc {
			t.Fatalf("sequence %d, phase %s:\nfused %+v\nsplit %+v", seq, ph, fc, sc)
		}
	}
	if f.Phase() != s.Phase() {
		t.Fatalf("sequence %d: phase %s fused, %s split", seq, f.Phase(), s.Phase())
	}
	if !reflect.DeepEqual(f.bp, s.bp) || !reflect.DeepEqual(f.btb, s.btb) ||
		!reflect.DeepEqual(f.l1, s.l1) || !reflect.DeepEqual(f.l2, s.l2) {
		t.Fatalf("sequence %d: predictor or cache state diverges", seq)
	}
	if !slices.Equal(p.fusedF.log, p.splitF.log) {
		t.Fatalf("sequence %d: observer saw %v fused, %v split", seq, p.fusedF.log, p.splitF.log)
	}
}

// TestDispatchMatchesSplit: the fused dispatch retire is Annot, Ops, the
// loads, Indirect and the branches exactly, with an observer on the
// dispatch tag that switches the phase mid-dispatch.
func TestDispatchMatchesSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	flips, empty := 0, 0
	for seq := 0; seq < 1000; seq++ {
		p := newFusedPair()
		for i := 0; i < 30; i++ {
			p.interleave(rng)
			alu := rng.Intn(15)
			loads := tableAddrs(rng, rng.Intn(6))
			site := isa.RegionVMText + uint64(rng.Intn(8))*64
			target := isa.RegionVMText + 0x1000 + uint64(rng.Intn(6))*16
			brs := make([]CondBranch, rng.Intn(3))
			for j := range brs {
				brs[j] = CondBranch{PC: site + 4 + uint64(j)*4, Taken: rng.Intn(2) == 0}
			}
			if len(loads) == 0 && len(brs) == 0 {
				empty++
			}
			before := p.split.Phase()
			p.fused.Dispatch(alu, loads, site, target, brs)
			p.split.Annot(core.TagDispatch, 1)
			if p.split.Phase() != before {
				flips++
			}
			p.split.Ops(isa.ALU, alu)
			for _, a := range loads {
				p.split.Load(a)
			}
			p.split.Indirect(site, target)
			for _, b := range brs {
				p.split.Branch(b.PC, b.Taken)
			}
		}
		p.check(t, seq)
	}
	if flips == 0 || empty == 0 {
		t.Fatalf("the sequences never exercised a phase switch by the observer (%d) or an empty dispatch (%d)", flips, empty)
	}
}

// TestOpsLoadsMatchesSplit is TestDispatchMatchesSplit for a primitive's
// fused retire: Ops(isa.ALU, n) and then the loads, between dispatches
// whose observer switches the phase.
func TestOpsLoadsMatchesSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for seq := 0; seq < 1000; seq++ {
		p := newFusedPair()
		for i := 0; i < 30; i++ {
			p.interleave(rng)
			if rng.Intn(3) == 0 {
				p.fused.Annot(core.TagDispatch, 1)
				p.split.Annot(core.TagDispatch, 1)
			}
			n := rng.Intn(8)
			loads := tableAddrs(rng, rng.Intn(4))
			p.fused.OpsLoads(n, loads)
			p.split.Ops(isa.ALU, n)
			for _, a := range loads {
				p.split.Load(a)
			}
		}
		p.check(t, seq)
	}
}

// recorder is an observer that logs what it is handed under its name.
type recorder struct {
	name string
	log  *[]string
}

func (r recorder) OnAnnotation(a core.Annotation, _, _ uint64) {
	*r.log = append(*r.log, fmt.Sprintf("%s:%d", r.name, a.Tag))
}

// TestObserveRoutesByTag: an observer registered for a tag set sees
// exactly those tags; observers of one annotation run in registration
// order however each was registered; no tags means every annotation; and
// registry-defined tags reach the catch-all observers, and an observer
// registered for one.
func TestObserveRoutesByTag(t *testing.T) {
	m := NewDefault()
	var log []string
	dyn := m.Registry().Define("app.checkpoint")
	other := m.Registry().Define("app.other")
	if int(dyn) < core.NumBuiltinTags {
		t.Fatalf("registry tag %d inside the built-in range", dyn)
	}
	m.Observe(recorder{"jit", &log}, core.TagJITEnter, core.TagJITLeave)
	m.Observe(recorder{"all1", &log})
	m.Observe(recorder{"disp", &log}, core.TagDispatch, core.TagJITEnter)
	m.Observe(recorder{"dyn", &log}, dyn)
	m.Observe(recorder{"all2", &log})

	for _, tc := range []struct {
		tag  core.Tag
		want string
	}{
		{core.TagJITEnter, "jit all1 disp all2"},
		{core.TagJITLeave, "jit all1 all2"},
		{core.TagDispatch, "all1 disp all2"},
		{core.TagGuardFail, "all1 all2"},
		{dyn, "all1 dyn all2"},
		{other, "all1 all2"},
	} {
		log = log[:0]
		m.Annot(tc.tag, 1)
		var want []string
		for _, name := range strings.Fields(tc.want) {
			want = append(want, fmt.Sprintf("%s:%d", name, tc.tag))
		}
		if !slices.Equal(log, want) {
			t.Errorf("tag %s: observers ran %v, want %v", m.Registry().Name(tc.tag), log, want)
		}
	}
	if got := m.Total().ClassCounts[isa.Nop]; got != 6 {
		t.Errorf("%d nops retired for 6 annotations", got)
	}
}

// BenchmarkMachineDispatch retires the framework interpreter's dispatch
// shape (13 ALU ops, 5 table loads, the indirect jump, 2 extra branches)
// through the fused entry, with one observer on the dispatch tag. The
// loads mostly hit a hot 16 KB core and sometimes walk 1.5 MB, as the
// interpreter's table loads do.
func BenchmarkMachineDispatch(b *testing.B) {
	m := NewDefault()
	m.Observe(nopObserver{}, core.TagDispatch)
	rng := rand.New(rand.NewSource(1))
	var addrs [1024]uint64
	for i := range addrs {
		if rng.Intn(16) == 0 {
			addrs[i] = uint64(rng.Intn(1536<<10)) &^ 7
		} else {
			addrs[i] = uint64(rng.Intn(16<<10)) &^ 7
		}
	}
	brs := make([]CondBranch, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := i % (len(addrs) - 5)
		target := uint64(i%37) * 64
		for j := range brs {
			brs[j] = CondBranch{PC: 0x1004 + uint64(j)*4, Taken: (target>>uint(j+3))&1 == 0}
		}
		m.Dispatch(13, addrs[k:k+5], 0x1000, target, brs)
	}
}

type nopObserver struct{}

func (nopObserver) OnAnnotation(core.Annotation, uint64, uint64) {}
