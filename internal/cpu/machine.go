package cpu

import (
	"metajit/internal/core"
	"metajit/internal/isa"
)

// Counters holds retired-instruction and event counts for one accounting
// domain (one phase, or the whole run).
type Counters struct {
	Instrs      uint64
	Cycles      float64
	CondBr      uint64
	CondMiss    uint64
	IndBr       uint64
	IndMiss     uint64
	Returns     uint64
	RetMiss     uint64
	Loads       uint64
	Stores      uint64
	L1Miss      uint64
	L2Miss      uint64
	ClassCounts [isa.NumClasses]uint64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Instrs += o.Instrs
	c.Cycles += o.Cycles
	c.CondBr += o.CondBr
	c.CondMiss += o.CondMiss
	c.IndBr += o.IndBr
	c.IndMiss += o.IndMiss
	c.Returns += o.Returns
	c.RetMiss += o.RetMiss
	c.Loads += o.Loads
	c.Stores += o.Stores
	c.L1Miss += o.L1Miss
	c.L2Miss += o.L2Miss
	for i := range c.ClassCounts {
		c.ClassCounts[i] += o.ClassCounts[i]
	}
}

// Domain is one accounting domain as the machine keeps it: the counters,
// with the cycles as a whole number of Units instead of in Cycles, which
// the machine leaves zero. Read converts them once.
type Domain struct {
	Counters
	Units uint64
}

// Read returns the domain's counters with Cycles converted from Units.
func (d *Domain) Read() Counters {
	c := d.Counters
	c.Cycles = CyclesOf(d.Units)
	return c
}

// IPC returns retired instructions per cycle.
func (c Counters) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Instrs) / c.Cycles
}

// Branches returns the total predicted-control-flow events (conditional +
// indirect + returns).
func (c Counters) Branches() uint64 { return c.CondBr + c.IndBr + c.Returns }

// Mispredicts returns total branch mispredictions.
func (c Counters) Mispredicts() uint64 { return c.CondMiss + c.IndMiss + c.RetMiss }

// BranchRate returns branches per instruction.
func (c Counters) BranchRate() float64 {
	if c.Instrs == 0 {
		return 0
	}
	return float64(c.Branches()) / float64(c.Instrs)
}

// MissRate returns the fraction of branches mispredicted.
func (c Counters) MissRate() float64 {
	if b := c.Branches(); b != 0 {
		return float64(c.Mispredicts()) / float64(b)
	}
	return 0
}

// MPKI returns branch mispredictions per thousand instructions, the metric
// reported in Table I.
func (c Counters) MPKI() float64 {
	if c.Instrs == 0 {
		return 0
	}
	return float64(c.Mispredicts()) / float64(c.Instrs) * 1000
}

// Machine is the simulated core and the instruction sink of the whole
// stack: every simulated component (interpreters, recorder, compiled
// traces, AOT runtime, collector, static kernels) holds the *Machine and
// retires into it directly, so that predictor and cache state is shared
// across layers, exactly as on real hardware. The retire methods are
// concrete on purpose — Ops and Block inline at their call sites, which an
// interface in between would prevent (`make inline` checks it).
type Machine struct {
	p Params
	// The costs in units, converted once by New: per class, a mispredict,
	// a load that hits L1 (issue and load-use stall), and what an access
	// adds when it misses L1 and hits L2 (l2Hit) or misses both (l2Miss).
	issue                              [isa.NumClasses]uint64
	mispredict, loadHit, l2Hit, l2Miss uint64

	phase   core.Phase
	cur     *Domain // &byPhase[phase], refreshed by SetPhase
	byPhase [core.NumPhases]Domain

	// Running whole-run totals maintained at retire time so TotalInstrs
	// and the totals an annotation hands its observers do not rescan
	// every phase. Units are integers, so both equal the phase sums.
	totInstrs, totUnits uint64

	// The predictor and cache models are held by value: a retire reaches
	// their tables through m, without a pointer load per model.
	bp  gshare
	btb btb
	ras ras
	l1  cache
	l2  cache

	// byTag[t] lists, in registration order, the observers that receive
	// annotations tagged t; all lists the observers registered for every
	// tag, which is also who receives a tag beyond the table (see Observe).
	byTag    [][]core.Observer
	all      []core.Observer
	registry *core.Registry
}

// obsPerTag is the room each built-in tag's observer list starts with,
// carved from one allocation: the harness's standing tools put at most two
// observers on a tag and an attached profiler or recorder adds one each. A
// fuller list grows on its own.
const obsPerTag = 4

// New returns a Machine with the given parameters, normalized first (see
// Params.Normalized): invalid cache and predictor geometry is rounded to
// the nearest modelable configuration rather than faulting mid-run.
func New(p Params) *Machine {
	m := &Machine{
		p:        p.Normalized(),
		byTag:    make([][]core.Observer, core.NumBuiltinTags),
		registry: core.NewRegistry(),
	}
	for c, cost := range m.p.IssueCost {
		m.issue[c] = Units(cost)
	}
	m.mispredict = Units(m.p.MispredictPenalty)
	m.loadHit = m.issue[isa.Load] + Units(m.p.LoadUseStall)
	m.l2Hit = Units(m.p.L1MissPenalty)
	m.l2Miss = m.l2Hit + Units(m.p.L2MissPenalty)
	m.bp = newGShare(m.p.GShareBits, m.p.HistoryBits)
	m.btb = newBTB(m.p.BTBBits)
	m.ras = newRAS(m.p.RASDepth)
	m.l1 = newCache(m.p.L1Size, m.p.L1Line)
	m.l2 = newCache(m.p.L2Size, m.p.L2Line)
	m.cur = &m.byPhase[m.phase]
	lists := make([]core.Observer, core.NumBuiltinTags*obsPerTag)
	for t := range m.byTag {
		m.byTag[t] = lists[t*obsPerTag : t*obsPerTag : (t+1)*obsPerTag]
	}
	return m
}

// NewDefault returns a Machine with DefaultParams.
func NewDefault() *Machine { return New(DefaultParams()) }

// Params returns the machine's microarchitectural parameters as
// normalized — i.e. the geometry actually modeled.
func (m *Machine) Params() Params { return m.p }

// Registry returns the machine's cross-layer tag registry.
func (m *Machine) Registry() *core.Registry { return m.registry }

// Observe registers an annotation interceptor (a "PinTool"). With tags, o
// receives only annotations carrying one of them; without, every
// annotation, registry-defined tags included. Observers of one annotation
// run in registration order, however each was registered.
func (m *Machine) Observe(o core.Observer, tags ...core.Tag) {
	if len(tags) == 0 {
		m.all = append(m.all, o)
		for t := range m.byTag {
			m.byTag[t] = append(m.byTag[t], o)
		}
		return
	}
	for _, t := range tags {
		for int(t) >= len(m.byTag) {
			// A registry-defined tag: its list starts from the observers
			// that were receiving it through m.all.
			m.byTag = append(m.byTag, append([]core.Observer(nil), m.all...))
		}
		m.byTag[t] = append(m.byTag[t], o)
	}
}

// SetPhase switches the accounting domain for subsequently retired
// instructions. It is typically called by a phase-tracking observer in
// response to phase-boundary annotations.
func (m *Machine) SetPhase(p core.Phase) {
	m.phase = p
	m.cur = &m.byPhase[p]
}

// Phase returns the current accounting phase.
func (m *Machine) Phase() core.Phase { return m.phase }

// PhaseCounters returns the accumulated counters of one phase.
func (m *Machine) PhaseCounters(p core.Phase) Counters { return m.byPhase[p].Read() }

// PhaseView returns a read-only view of one phase's live domain: the
// pointee advances as instructions retire into that phase. It exists for
// per-annotation observers, which cannot afford a Counters copy per
// event; callers must not write through it.
func (m *Machine) PhaseView(p core.Phase) *Domain { return &m.byPhase[p] }

// Total returns counters summed over all phases, the cycles in units.
func (m *Machine) Total() Counters {
	var t Domain
	for i := range m.byPhase {
		t.Counters.Add(m.byPhase[i].Counters)
		t.Units += m.byPhase[i].Units
	}
	return t.Read()
}

// TotalInstrs returns total retired instructions (cheap, for sampling).
func (m *Machine) TotalInstrs() uint64 { return m.totInstrs }

// TotalCycles returns total elapsed cycles: Total().Cycles, exactly.
func (m *Machine) TotalCycles() float64 { return CyclesOf(m.totUnits) }

// Ops retires n straight-line instructions of class c. c must not be a
// branch class.
func (m *Machine) Ops(c isa.Class, n int) {
	d, un := m.cur, uint64(n)
	d.ClassCounts[c] += un
	m.retire(d, un, m.issue[c]*un)
}

// retire adds n instructions costing u units to d and to the running
// totals.
func (m *Machine) retire(d *Domain, n, u uint64) {
	d.Instrs += n
	d.Units += u
	m.totInstrs += n
	m.totUnits += u
}

// Block retires a precomputed straight-line mix in one call instead of
// one Ops call per class.
func (m *Machine) Block(b *isa.Block) {
	d := m.cur
	var u uint64
	for _, cc := range b.Mix {
		d.ClassCounts[cc.Class] += uint64(cc.N)
		u += m.issue[cc.Class] * uint64(cc.N)
	}
	m.retire(d, b.Total, u)
}

// Load retires one load from the simulated address addr.
func (m *Machine) Load(addr uint64) {
	d := m.cur
	d.ClassCounts[isa.Load]++
	d.Loads++
	u := m.loadHit
	if !m.l1.access(addr) {
		d.L1Miss++
		if m.l2.access(addr) {
			u += m.l2Hit
		} else {
			d.L2Miss++
			u += m.l2Miss
		}
	}
	m.retire(d, 1, u)
}

// Store retires one store to the simulated address addr. Store misses are
// charged half the load miss penalty, rounded down to a unit: the store
// buffer hides most of the latency, but a miss still occupies a fill
// buffer and delays retirement. An L2 miss pays the full path to memory,
// the L1 component plus the L2 component, both half-hidden.
func (m *Machine) Store(addr uint64) {
	d := m.cur
	d.ClassCounts[isa.Store]++
	d.Stores++
	u := m.issue[isa.Store]
	if !m.l1.access(addr) {
		d.L1Miss++
		if m.l2.access(addr) {
			u += m.l2Hit / 2
		} else {
			d.L2Miss++
			u += m.l2Miss / 2
		}
	}
	m.retire(d, 1, u)
}

// Branch retires a conditional direct branch at pc with the given outcome.
func (m *Machine) Branch(pc uint64, taken bool) {
	d := m.cur
	d.ClassCounts[isa.Branch]++
	d.CondBr++
	u := m.issue[isa.Branch]
	if !m.bp.predict(pc, taken) {
		d.CondMiss++
		u += m.mispredict
	}
	m.retire(d, 1, u)
}

// OpsBranch retires n ALU instructions and then a conditional branch at pc
// — a compiled guard's compare-and-branch — in one call: Ops(isa.ALU, n)
// followed by Branch(pc, taken).
func (m *Machine) OpsBranch(n int, pc uint64, taken bool) {
	d, un := m.cur, uint64(n)
	d.ClassCounts[isa.ALU] += un
	d.ClassCounts[isa.Branch]++
	d.CondBr++
	u := m.issue[isa.ALU]*un + m.issue[isa.Branch]
	if !m.bp.predict(pc, taken) {
		d.CondMiss++
		u += m.mispredict
	}
	m.retire(d, un+1, u)
}

// CondBranch is one conditional branch of a Dispatch: its pc and outcome.
type CondBranch struct {
	PC    uint64
	Taken bool
}

// Dispatch retires one bytecode dispatch of an interpreter in one call:
//
//	Annot(core.TagDispatch, 1)
//	Ops(isa.ALU, alu)
//	Load(a) for each a in loads
//	Indirect(site, target)
//	Branch(b.PC, b.Taken) for each b in brs
//
// The annotation retires and reaches its observers first, and the phase
// is read again after them (an observer may SetPhase). The rest consults
// the models in the split calls' order and retires as one sum.
func (m *Machine) Dispatch(alu int, loads []uint64, site, target uint64, brs []CondBranch) {
	d := m.cur
	d.ClassCounts[isa.Nop]++
	m.retire(d, 1, m.issue[isa.Nop])
	if obs := m.byTag[core.TagDispatch]; len(obs) != 0 {
		a, instrs, cycles := core.Annotation{Tag: core.TagDispatch, Arg: 1}, m.totInstrs, m.totUnits/UnitsPerCycle
		for _, o := range obs {
			o.OnAnnotation(a, instrs, cycles)
		}
	}

	d = m.cur
	// The ALU ops and the loads, as in OpsLoads. Written out rather than
	// called: the call and the spills around it cost the fused dispatch a
	// tenth of its host time.
	un, nl, nb := uint64(alu), uint64(len(loads)), uint64(len(brs))
	d.ClassCounts[isa.ALU] += un
	d.ClassCounts[isa.Load] += nl
	d.ClassCounts[isa.IndirectJump]++
	d.ClassCounts[isa.Branch] += nb
	d.Loads += nl
	d.IndBr++
	d.CondBr += nb
	u := m.issue[isa.ALU]*un + m.loadHit*nl + m.issue[isa.IndirectJump] + m.issue[isa.Branch]*nb
	for _, a := range loads {
		if !m.l1.access(a) {
			d.L1Miss++
			if m.l2.access(a) {
				u += m.l2Hit
			} else {
				d.L2Miss++
				u += m.l2Miss
			}
		}
	}
	if !m.btb.predict(site, target) {
		d.IndMiss++
		u += m.mispredict
	}
	for _, b := range brs {
		if !m.bp.predict(b.PC, b.Taken) {
			d.CondMiss++
			u += m.mispredict
		}
	}
	m.retire(d, un+nl+1+nb, u)
}

// OpsLoads retires n ALU instructions and then one load at each address
// of loads — an interpreter primitive's tag tests and table loads — in
// one call: Ops(isa.ALU, n) followed by Load(a) for each a.
func (m *Machine) OpsLoads(n int, loads []uint64) {
	d := m.cur
	un, nl := uint64(n), uint64(len(loads))
	d.ClassCounts[isa.ALU] += un
	d.ClassCounts[isa.Load] += nl
	d.Loads += nl
	u := m.issue[isa.ALU]*un + m.loadHit*nl
	for _, a := range loads {
		if !m.l1.access(a) {
			d.L1Miss++
			if m.l2.access(a) {
				u += m.l2Hit
			} else {
				d.L2Miss++
				u += m.l2Miss
			}
		}
	}
	m.retire(d, un+nl, u)
}

// Indirect retires an indirect jump at pc to target (interpreter
// dispatch, vtable dispatch).
func (m *Machine) Indirect(pc, target uint64) {
	d := m.cur
	d.ClassCounts[isa.IndirectJump]++
	d.IndBr++
	u := m.issue[isa.IndirectJump]
	if !m.btb.predict(pc, target) {
		d.IndMiss++
		u += m.mispredict
	}
	m.retire(d, 1, u)
}

// CallDirect retires a direct call at pc (pushes the return-address
// stack).
func (m *Machine) CallDirect(pc uint64) {
	d := m.cur
	d.ClassCounts[isa.Call]++
	m.retire(d, 1, m.issue[isa.Call])
	m.ras.push(pc + 4)
}

// CallIndirect retires an indirect call at pc to target.
func (m *Machine) CallIndirect(pc, target uint64) {
	d := m.cur
	d.ClassCounts[isa.IndirectCall]++
	d.IndBr++
	u := m.issue[isa.IndirectCall]
	if !m.btb.predict(pc, target) {
		d.IndMiss++
		u += m.mispredict
	}
	m.retire(d, 1, u)
	m.ras.push(pc + 4)
}

// Return retires a return (pops the return-address stack).
func (m *Machine) Return() {
	d := m.cur
	d.ClassCounts[isa.Ret]++
	d.Returns++
	u := m.issue[isa.Ret]
	if !m.ras.pop() {
		d.RetMiss++
		u += m.mispredict
	}
	m.retire(d, 1, u)
}

// Annot retires a tagged nop carrying a cross-layer annotation and hands
// it, with the machine's current instruction and whole-cycle totals, to
// the observers registered for its tag.
func (m *Machine) Annot(tag core.Tag, arg uint64) {
	d := m.cur
	d.ClassCounts[isa.Nop]++
	m.retire(d, 1, m.issue[isa.Nop])
	obs := m.all
	if int(tag) < len(m.byTag) {
		obs = m.byTag[tag]
	}
	if len(obs) == 0 {
		return
	}
	a, instrs, cycles := core.Annotation{Tag: tag, Arg: arg}, m.totInstrs, m.totUnits/UnitsPerCycle
	for _, o := range obs {
		o.OnAnnotation(a, instrs, cycles)
	}
}
