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

// Machine is the simulated core. It implements isa.Stream; all simulated
// components of the VM stack emit into one Machine so that predictor and
// cache state is shared across layers, exactly as on real hardware.
type Machine struct {
	p Params

	phase   core.Phase
	cur     *Counters // &byPhase[phase], refreshed by SetPhase
	byPhase [core.NumPhases]Counters

	// Running whole-run totals maintained at retire time so TotalInstrs
	// and TotalCycles (hit once per dispatch annotation) do not rescan
	// every phase. totCycles accumulates in retire order, while the
	// per-phase Cycles sum groups by phase; the two can differ by float64
	// rounding at the last bit. Exact whole-run accounting (Total, and
	// everything derived from Result) therefore still sums byPhase.
	totInstrs uint64
	totCycles float64

	bp  *gshare
	btb *btb
	ras *ras
	l1  *cache
	l2  *cache

	observers []core.Observer
	registry  *core.Registry
}

var _ isa.Stream = (*Machine)(nil)

// New returns a Machine with the given parameters, normalized first (see
// Params.Normalized): invalid cache and predictor geometry is rounded to
// the nearest modelable configuration rather than faulting mid-run.
func New(p Params) *Machine {
	m := &Machine{
		p:        p.Normalized(),
		registry: core.NewRegistry(),
	}
	m.bp = newGShare(m.p.GShareBits, m.p.HistoryBits)
	m.btb = newBTB(m.p.BTBBits)
	m.ras = newRAS(m.p.RASDepth)
	m.l1 = newCache(m.p.L1Size, m.p.L1Line)
	m.l2 = newCache(m.p.L2Size, m.p.L2Line)
	m.cur = &m.byPhase[m.phase]
	return m
}

// NewDefault returns a Machine with DefaultParams.
func NewDefault() *Machine { return New(DefaultParams()) }

// Params returns the machine's microarchitectural parameters as
// normalized — i.e. the geometry actually modeled.
func (m *Machine) Params() Params { return m.p }

// Registry returns the machine's cross-layer tag registry.
func (m *Machine) Registry() *core.Registry { return m.registry }

// Observe registers an annotation interceptor (a "PinTool").
func (m *Machine) Observe(o core.Observer) { m.observers = append(m.observers, o) }

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
func (m *Machine) PhaseCounters(p core.Phase) Counters { return m.byPhase[p] }

// PhaseView returns a read-only view of one phase's live counters: the
// pointee advances as instructions retire into that phase. It exists for
// per-annotation observers, which cannot afford a Counters copy per
// event; callers must not write through it.
func (m *Machine) PhaseView(p core.Phase) *Counters { return &m.byPhase[p] }

// Total returns counters summed over all phases.
func (m *Machine) Total() Counters {
	var t Counters
	for i := range m.byPhase {
		t.Add(m.byPhase[i])
	}
	return t
}

// TotalInstrs returns total retired instructions (cheap, for sampling).
func (m *Machine) TotalInstrs() uint64 { return m.totInstrs }

// TotalCycles returns total elapsed cycles, accumulated in retire order
// (may differ from the per-phase grouped sum in the last float64 bit).
func (m *Machine) TotalCycles() float64 { return m.totCycles }

// Ops implements isa.Stream.
func (m *Machine) Ops(c isa.Class, n int) {
	d := m.cur
	un := uint64(n)
	d.Instrs += un
	d.ClassCounts[c] += un
	cyc := m.p.IssueCost[c] * float64(n)
	d.Cycles += cyc
	m.totInstrs += un
	m.totCycles += cyc
}

// Block implements isa.Stream: retires a precomputed straight-line mix in
// one dynamic call instead of one Ops call per class.
func (m *Machine) Block(b *isa.Block) {
	d := m.cur
	var cyc float64
	for _, cc := range b.Mix {
		d.ClassCounts[cc.Class] += uint64(cc.N)
		cyc += m.p.IssueCost[cc.Class] * float64(cc.N)
	}
	d.Instrs += b.Total
	d.Cycles += cyc
	m.totInstrs += b.Total
	m.totCycles += cyc
}

// Load implements isa.Stream.
func (m *Machine) Load(addr uint64) {
	d := m.cur
	d.Instrs++
	d.ClassCounts[isa.Load]++
	d.Loads++
	cyc := m.p.IssueCost[isa.Load] + m.p.LoadUseStall
	if !m.l1.access(addr) {
		d.L1Miss++
		if m.l2.access(addr) {
			cyc += m.p.L1MissPenalty
		} else {
			d.L2Miss++
			cyc += m.p.L1MissPenalty + m.p.L2MissPenalty
		}
	}
	d.Cycles += cyc
	m.totInstrs++
	m.totCycles += cyc
}

// Store implements isa.Stream. Store misses are charged half the load
// miss penalty: the store buffer hides most of the latency, but a miss
// still occupies a fill buffer and delays retirement.
func (m *Machine) Store(addr uint64) {
	d := m.cur
	d.Instrs++
	d.ClassCounts[isa.Store]++
	d.Stores++
	cyc := m.p.IssueCost[isa.Store]
	if !m.l1.access(addr) {
		d.L1Miss++
		if m.l2.access(addr) {
			cyc += m.p.L1MissPenalty * 0.5
		} else {
			d.L2Miss++
			// An L2 miss pays the full path to memory: the L1 component
			// plus the L2 component, both half-hidden like the L2-hit case.
			cyc += (m.p.L1MissPenalty + m.p.L2MissPenalty) * 0.5
		}
	}
	d.Cycles += cyc
	m.totInstrs++
	m.totCycles += cyc
}

// Branch implements isa.Stream.
func (m *Machine) Branch(pc uint64, taken bool) {
	d := m.cur
	d.Instrs++
	d.ClassCounts[isa.Branch]++
	d.CondBr++
	cyc := m.p.IssueCost[isa.Branch]
	if !m.bp.predict(pc, taken) {
		d.CondMiss++
		cyc += m.p.MispredictPenalty
	}
	d.Cycles += cyc
	m.totInstrs++
	m.totCycles += cyc
}

// Indirect implements isa.Stream.
func (m *Machine) Indirect(pc, target uint64) {
	d := m.cur
	d.Instrs++
	d.ClassCounts[isa.IndirectJump]++
	d.IndBr++
	cyc := m.p.IssueCost[isa.IndirectJump]
	if !m.btb.predict(pc, target) {
		d.IndMiss++
		cyc += m.p.MispredictPenalty
	}
	d.Cycles += cyc
	m.totInstrs++
	m.totCycles += cyc
}

// CallDirect implements isa.Stream.
func (m *Machine) CallDirect(pc uint64) {
	d := m.cur
	d.Instrs++
	d.ClassCounts[isa.Call]++
	cyc := m.p.IssueCost[isa.Call]
	d.Cycles += cyc
	m.totInstrs++
	m.totCycles += cyc
	m.ras.push(pc + 4)
}

// CallIndirect implements isa.Stream.
func (m *Machine) CallIndirect(pc, target uint64) {
	d := m.cur
	d.Instrs++
	d.ClassCounts[isa.IndirectCall]++
	d.IndBr++
	cyc := m.p.IssueCost[isa.IndirectCall]
	if !m.btb.predict(pc, target) {
		d.IndMiss++
		cyc += m.p.MispredictPenalty
	}
	d.Cycles += cyc
	m.totInstrs++
	m.totCycles += cyc
	m.ras.push(pc + 4)
}

// Return implements isa.Stream.
func (m *Machine) Return() {
	d := m.cur
	d.Instrs++
	d.ClassCounts[isa.Ret]++
	d.Returns++
	cyc := m.p.IssueCost[isa.Ret]
	if !m.ras.pop() {
		d.RetMiss++
		cyc += m.p.MispredictPenalty
	}
	d.Cycles += cyc
	m.totInstrs++
	m.totCycles += cyc
}

// Annot implements isa.Stream: retires a tagged nop and dispatches it to
// every registered observer with the machine's current instruction and
// cycle totals.
func (m *Machine) Annot(tag core.Tag, arg uint64) {
	d := m.cur
	d.Instrs++
	d.ClassCounts[isa.Nop]++
	cyc := m.p.IssueCost[isa.Nop]
	d.Cycles += cyc
	m.totInstrs++
	m.totCycles += cyc
	if len(m.observers) == 0 {
		return
	}
	a := core.Annotation{Tag: tag, Arg: arg}
	instrs := m.totInstrs
	cycles := uint64(m.totCycles)
	for _, o := range m.observers {
		o.OnAnnotation(a, instrs, cycles)
	}
}
