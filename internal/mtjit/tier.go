package mtjit

import (
	"fmt"

	"metajit/internal/core"
	"metajit/internal/heap"
	"metajit/internal/isa"
)

// This file implements the two lower tiers — the compilers that sit
// between plain interpretation and the tracing JIT — as one mechanism
// with a row of tierTable per tier, after the multi-tier meta-tracing
// designs of Izawa & Bolz-Tereick ("Two-level Just-in-Time Compilation
// with One Interpreter and One Engine", "Amalgamating Different JIT
// Compilations in a Meta-tracing JIT Compiler Framework"):
//
//   - Tier 1, baseline: when a loop header's counter crosses the (low)
//     BaselineThreshold, the loop body is compiled straight-line to
//     threaded code with no optimization. The hot counter keeps
//     accumulating, so the loop is promoted to the tracing pipeline at
//     Threshold as usual.
//   - Tier 2, method: when a function's pooled header count crosses
//     MethodThreshold and the tier controller judges its region
//     trace-hostile (Engine.hostile), the whole function is compiled.
//     Trace-friendly hot loops keep the tracing pipeline — a loop trace
//     always wins its own header (LookupTrace has residency precedence),
//     and method code coexists with traces covering loops inside it.
//
// In both tiers every bytecode keeps its generic handler and type checks
// stay generic guards. Execution is concrete: it reuses the guest
// evaluator through TierMachine, which changes only the cost accounting
// (the tier's dispatch instead of the framework switch loop) and
// intercepts guards. Results are therefore byte-identical to plain
// interpretation by construction; the differential oracle checks that
// this stays true. Deopt is interpreter fallback at the failing
// bytecode's boundary with no state reconstruction, because lower-tier
// frames ARE interpreter frames.
//
// Everything that differs between the tiers is a tierTable field. The
// only tier-specific statements are the two cross-tier policies: a loop
// trace invalidates the baseline code at its header (Engine.install),
// and installing method code invalidates the baseline code in its
// function (CompileTier). Both tiers are invalidated by InvalidateGlobal
// (the code embeds global values the way the interpreter's inline
// caches do).

// Tier names a lower tier.
type Tier uint8

// The lower tiers, in promotion order.
const (
	BaselineTier Tier = iota
	MethodTier
	NumTiers
)

func (t Tier) String() string { return tierTable[t].name }

// tierSpec is one row of tierTable: everything that distinguishes a
// lower tier from the other.
type tierSpec struct {
	// name is the tier's JSON name; labelPrefix starts
	// its code labels (TierCode.Label).
	name, labelPrefix string
	// perFunction tiers compile, look up and blacklist whole functions
	// (key PC 0); the others work per loop header.
	perFunction bool

	// The tier's annotation vocabulary.
	compileStart, compileEnd, enter, leave, deopt core.Tag

	// Compile cost over n lowered bytecodes, charged to the tier's
	// compile phase.
	compileALU, compileLoad, compileStore tierCost

	// Fixed tier-transition instruction mixes, retired as single blocks:
	// these sit on every residency enter/leave, which makes them
	// interpreter-loop-hot.
	enterBlock, leaveBlock, deoptBlock *isa.Block

	// Resident cost: what the tier's code pays per bytecode in place of
	// the interpreter's fetch/decode switch, and the working set it
	// walks. Primitive and call costs are the interpreter's — lower-tier
	// code runs the same generic handlers, it only removes dispatch
	// overhead.
	dispatchALU, dispatchLoads int
	footprint                  uint64

	// stats selects the tier's counters in EngineStats.
	stats func(*EngineStats) tierCounters
}

// tierCounters points at one tier's EngineStats fields.
type tierCounters struct {
	compiled, invalidated *int
	enters, deopts        *uint64
}

// tierCost is a compile cost in instructions: perOp for each lowered
// bytecode plus the fixed entry/exit stub cost.
type tierCost struct{ perOp, fixed int }

func (c tierCost) of(n int) int { return c.perOp*n + c.fixed }

var tierTable = [NumTiers]tierSpec{
	BaselineTier: {
		name:         "baseline",
		labelPrefix:  "bc",
		compileStart: core.TagBaselineCompileStart,
		compileEnd:   core.TagBaselineCompileEnd,
		enter:        core.TagBaselineEnter,
		leave:        core.TagBaselineLeave,
		deopt:        core.TagBaselineDeopt,
		// One template copy per bytecode, no optimizer: far below
		// tracing cost.
		compileALU:   tierCost{22, 40},
		compileLoad:  tierCost{6, 10},
		compileStore: tierCost{9, 12},
		// The entry stub loads the threaded-code register state.
		enterBlock: isa.NewBlock(isa.CC(isa.ALU, 3), isa.CC(isa.Store, 2)),
		leaveBlock: isa.NewBlock(isa.CC(isa.ALU, 2), isa.CC(isa.Load, 1)),
		deoptBlock: isa.NewBlock(isa.CC(isa.ALU, 8), isa.CC(isa.Store, 4)),
		// A direct-threaded next-handler jump (2 ALU + 1 load, no extra
		// data-dependent branches); the working set shrinks to the
		// compiled templates.
		dispatchALU:   2,
		dispatchLoads: 1,
		footprint:     64 << 10,
		stats: func(s *EngineStats) tierCounters {
			return tierCounters{&s.BaselinesCompiled, &s.BaselineInvalidated, &s.BaselineEnters, &s.BaselineDeopts}
		},
	},
	MethodTier: {
		name:         "method",
		labelPrefix:  "mc",
		perFunction:  true,
		compileStart: core.TagMethodCompileStart,
		compileEnd:   core.TagMethodCompileEnd,
		enter:        core.TagMethodEnter,
		leave:        core.TagMethodLeave,
		deopt:        core.TagMethodDeopt,
		// Heavier per bytecode than the baseline template copy (the
		// method compiler allocates registers across the whole function)
		// but far below tracing cost per op.
		compileALU:   tierCost{34, 80},
		compileLoad:  tierCost{9, 16},
		compileStore: tierCost{14, 20},
		// The entry stub spills locals into a register frame, so entry
		// is marginally heavier than the baseline stub.
		enterBlock: isa.NewBlock(isa.CC(isa.ALU, 4), isa.CC(isa.Store, 2)),
		leaveBlock: isa.NewBlock(isa.CC(isa.ALU, 2), isa.CC(isa.Load, 1)),
		deoptBlock: isa.NewBlock(isa.CC(isa.ALU, 8), isa.CC(isa.Store, 4)),
		// No dispatch at all: a single fused compare-and-fallthrough per
		// bytecode boundary for the deopt check. The working set is
		// larger than a baseline fragment's (whole functions).
		dispatchALU:   1,
		dispatchLoads: 0,
		footprint:     96 << 10,
		stats: func(s *EngineStats) tierCounters {
			return tierCounters{&s.MethodsCompiled, &s.MethodInvalidated, &s.MethodEnters, &s.MethodDeopts}
		},
	},
}

// key maps a loop-header green key onto the tier's lookup key.
func (s *tierSpec) key(k GreenKey) GreenKey {
	if s.perFunction {
		k.PC = 0
	}
	return k
}

// startArg is the compile-start annotation argument for a lookup key.
func (s *tierSpec) startArg(k GreenKey) uint64 {
	if s.perFunction {
		return uint64(k.CodeID)
	}
	return uint64(k.CodeID)<<16 | uint64(k.PC)
}

// tierState is the engine's bookkeeping for one lower tier.
type tierState struct {
	// live is the dispatch table: installed, valid code by lookup key.
	live map[GreenKey]*TierCode
	// failed holds keys the guest could not lower.
	failed map[GreenKey]bool
	// all is the compile log in install order (including invalidated
	// code — the log does not rewrite history).
	all []*TierCode
	// deps maps a global name to the code embedding its value (lower-
	// tier code embeds globals like an inline cache).
	deps map[string][]*TierCode
	// seq is the tier's own ID sequence: IDs label profile spans and
	// jitlog records per tier.
	seq   uint32
	stats tierCounters
}

func (e *Engine) initTiers() {
	for t := range e.tiers {
		e.tiers[t] = tierState{
			live:   map[GreenKey]*TierCode{},
			failed: map[GreenKey]bool{},
			deps:   map[string][]*TierCode{},
			stats:  tierTable[t].stats(&e.stats),
		}
	}
}

// TierOp describes one guest bytecode lowered into lower-tier code.
type TierOp struct {
	// PC is the guest bytecode position.
	PC int
	// AsmLen is the compiled footprint in synthetic instructions.
	AsmLen int
}

// TierCode is one installed unit of lower-tier code: a loop body
// entered at its header (baseline) or a whole guest function entered at
// any loop header (method).
type TierCode struct {
	Tier Tier
	// ID is unique within the tier.
	ID uint32
	// CodeID identifies the guest function; Start..End is the inclusive
	// guest pc range the code covers (the loop header through its last
	// back-edge, or the function's entire bytecode range from 0).
	CodeID     uint32
	Start, End int
	Ops        []TierOp
	// Globals lists module globals whose values the code embeds;
	// mutating any of them invalidates the code.
	Globals []string

	// AsmBase/AsmLen locate the code in the simulated JIT code region.
	AsmBase uint64
	AsmLen  int

	// EnterCount / DeoptCount are execution statistics.
	EnterCount uint64
	DeoptCount uint64
	// Invalidated is set on supersession by a higher tier and on global
	// mutation; invalidated code is never entered again.
	Invalidated bool

	pcIdx map[int]int // guest pc -> index in Ops
	opOff []uint64    // per-op byte offset from AsmBase
	label string      // Label's result, built on first use
}

// Label returns a compact human-readable name for the code, unique
// within the run: "bc1@c2:p14" for baseline code 1 of the loop header
// at pc 14 of function 2, "mc1@c2" for that function's method code 1.
// The format is safe for folded-flamegraph frames: no spaces or
// semicolons.
func (c *TierCode) Label() string {
	if c.label == "" {
		spec := &tierTable[c.Tier]
		c.label = fmt.Sprintf("%s%d@c%d", spec.labelPrefix, c.ID, c.CodeID)
		if !spec.perFunction {
			c.label += fmt.Sprintf(":p%d", c.Start)
		}
	}
	return c.label
}

// Key returns the code's lookup key: its loop header, or pc 0 of its
// function.
func (c *TierCode) Key() GreenKey { return GreenKey{CodeID: c.CodeID, PC: c.Start} }

// Covers reports whether pc falls inside the compiled region.
func (c *TierCode) Covers(pc int) bool { return pc >= c.Start && pc <= c.End }

// SitePC returns the simulated code address of the compiled fragment
// for a guest pc (used as the dispatch site while resident, so
// indirect-branch prediction sees per-fragment sites as real compiled
// code does).
func (c *TierCode) SitePC(pc int) uint64 {
	if i, ok := c.pcIdx[pc]; ok {
		return c.AsmBase + c.opOff[i]
	}
	return c.AsmBase
}

// CompileTier lowers the guest pc range [start, end] of function codeID
// into tier-t code and installs it. ops lists the covered bytecodes in
// pc order with their compiled footprints; globals names the module
// globals whose values the code embeds (invalidation dependencies). The
// range of a per-function tier starts at pc 0 (Validate checks it).
func (e *Engine) CompileTier(t Tier, codeID uint32, start, end int, ops []TierOp, globals []string) *TierCode {
	spec, ts := &tierTable[t], &e.tiers[t]
	ts.seq++
	c := &TierCode{
		Tier:    t,
		ID:      ts.seq,
		CodeID:  codeID,
		Start:   start,
		End:     end,
		Ops:     ops,
		Globals: globals,
		pcIdx:   make(map[int]int, len(ops)),
		opOff:   make([]uint64, len(ops)),
	}
	e.S.Annot(spec.compileStart, spec.startArg(c.Key()))
	off := uint64(0)
	for i := range ops {
		c.pcIdx[ops[i].PC] = i
		c.opOff[i] = off
		off += uint64(ops[i].AsmLen) * 4
	}
	c.AsmLen = int(off / 4)
	c.AsmBase = e.jitPC.Take(off + 64)

	e.S.Ops(isa.ALU, spec.compileALU.of(len(ops)))
	e.S.Ops(isa.Load, spec.compileLoad.of(len(ops)))
	e.S.Ops(isa.Store, spec.compileStore.of(len(ops)))

	ts.live[c.Key()] = c
	ts.all = append(ts.all, c)
	for _, name := range globals {
		ts.deps[name] = append(ts.deps[name], c)
	}
	if t == MethodTier {
		// Amalgamation: method code owns the function; baseline fragments
		// inside it are superseded (install order makes this
		// deterministic), and a function with live method code never
		// grows new ones (CountAtHeader; verify.go checks both).
		for _, bc := range e.tiers[BaselineTier].all {
			if !bc.Invalidated && bc.CodeID == codeID {
				e.invalidateTier(bc)
			}
		}
	}
	*ts.stats.compiled++
	e.S.Annot(spec.compileEnd, uint64(c.ID))
	if e.OnTierCompile != nil {
		e.OnTierCompile(c)
	}
	return c
}

// MarkTierFailed blacklists a header (or function) the guest could not
// lower to tier t; the tier state machine will not ask again.
func (e *Engine) MarkTierFailed(t Tier, key GreenKey) {
	e.tiers[t].failed[tierTable[t].key(key)] = true
}

func (e *Engine) tierFailed(t Tier, key GreenKey) bool {
	return e.tiers[t].failed[tierTable[t].key(key)]
}

// liveTier returns tier t's installed, valid code for the frame at loop
// header key, or nil.
func (e *Engine) liveTier(t Tier, key GreenKey) *TierCode {
	return e.tiers[t].live[tierTable[t].key(key)]
}

// LookupTier returns the lower-tier code that runs the frame at loop
// header key, or nil: the highest tier with live code wins (the
// function's method code if it has any, else the header's baseline
// code).
func (e *Engine) LookupTier(key GreenKey) *TierCode {
	for t := NumTiers; t > 0; {
		t--
		if c := e.liveTier(t, key); c != nil {
			return c
		}
	}
	return nil
}

// EnterTier accounts a transfer from the interpreter into lower-tier
// code through its entry stub.
func (e *Engine) EnterTier(c *TierCode) {
	spec := &tierTable[c.Tier]
	e.S.Annot(spec.enter, uint64(c.ID))
	c.EnterCount++
	*e.tiers[c.Tier].stats.enters++
	e.S.Block(spec.enterBlock)
}

// LeaveTier accounts a transfer out of lower-tier code back to the
// interpreter (region exit, call, return, trace entry, or invalidation).
func (e *Engine) LeaveTier(c *TierCode) {
	spec := &tierTable[c.Tier]
	e.S.Block(spec.leaveBlock)
	e.S.Annot(spec.leave, uint64(c.ID))
}

// TierDeopt accounts a lower-tier guard failure: unlike trace deopt
// there is no state reconstruction, only a jump back to the generic
// handler. The caller leaves residency afterwards via LeaveTier.
func (e *Engine) TierDeopt(c *TierCode) {
	spec := &tierTable[c.Tier]
	c.DeoptCount++
	*e.tiers[c.Tier].stats.deopts++
	e.S.Annot(spec.deopt, uint64(c.ID))
	e.S.Block(spec.deoptBlock)
}

// invalidateTier kills one lower-tier compilation: it is unlinked from
// the dispatch table so it is never entered again (execution currently
// resident notices the flag at the next bytecode-boundary check).
func (e *Engine) invalidateTier(c *TierCode) {
	if c.Invalidated {
		return
	}
	ts := &e.tiers[c.Tier]
	c.Invalidated = true
	*ts.stats.invalidated++
	if ts.live[c.Key()] == c {
		delete(ts.live, c.Key())
	}
	e.S.Ops(isa.ALU, 4)
	e.S.Ops(isa.Store, 1)
}

// invalidateTierDeps kills the lower-tier code embedding a global's
// value, highest tier first.
func (e *Engine) invalidateTierDeps(name string) {
	for t := NumTiers; t > 0; {
		t--
		ts := &e.tiers[t]
		if cs := ts.deps[name]; len(cs) > 0 {
			delete(ts.deps, name)
			for _, c := range cs {
				e.invalidateTier(c)
			}
		}
	}
}

// TierMachine executes guest operations concretely at a lower tier's
// cost. It embeds a DirectMachine on the tier's cost profile, so
// semantics are identical to plain interpretation; additionally every
// operation that would be a guard in a trace (type tests, truth tests,
// promotions, overflow arithmetic) passes through a generic-guard point
// that the ForceTierGuardFail hook can fail, latching a pending deopt
// the driver drains at the next bytecode boundary.
//
// Each tier gets its own TierMachine, hence its own DirectMachine:
// dispatchSeq is per-instance state that feeds tableLoad addresses, so
// two tiers sharing one instance would see each other's cache traffic.
type TierMachine struct {
	*DirectMachine
	Eng *Engine

	// Code is the compilation currently executing.
	Code *TierCode

	curPC        int
	guardSeq     int
	pendingDeopt bool
}

var _ Machine = (*TierMachine)(nil)

// NewTierMachine returns the tier-t machine for an engine, deriving its
// cost profile from the engine's interpreter profile.
func NewTierMachine(e *Engine, t Tier) *TierMachine {
	spec, p := &tierTable[t], e.Profile
	return &TierMachine{
		DirectMachine: NewDirectMachine(e.RT, &CostProfile{
			Name:          p.Name + "+" + spec.name,
			DispatchALU:   spec.dispatchALU,
			DispatchLoads: spec.dispatchLoads,
			PrimALU:       p.PrimALU,
			PrimLoads:     p.PrimLoads,
			Footprint:     spec.footprint,
			CallALU:       p.CallALU,
			CallLoads:     p.CallLoads,
			CallStores:    p.CallStores,
		}),
		Eng: e,
	}
}

// BeginOp marks the start of one resident bytecode: guard identities are
// (guest pc, ordinal within the bytecode's lowering), so they are unique
// within one TierCode, stable across runs and enumerable by the deopt
// round-trip test.
func (m *TierMachine) BeginOp(pc int) {
	m.curPC = pc
	m.guardSeq = 0
}

// TakeDeopt consumes the pending-deopt latch set by a forced guard
// failure.
func (m *TierMachine) TakeDeopt() bool {
	d := m.pendingDeopt
	m.pendingDeopt = false
	return d
}

// guard is one generic-guard point in the compiled code: a compare and
// a well-predicted branch. A forced failure latches the deopt; the
// current bytecode still completes concretely (lower-tier guards sit at
// bytecode boundaries in the lowering), so falling back to the
// interpreter afterwards is state-identical.
func (m *TierMachine) guard() {
	m.S.Ops(isa.ALU, 1)
	id := uint64(m.curPC)<<8 | uint64(m.guardSeq&0xFF)
	m.guardSeq++
	if !m.pendingDeopt && m.Eng.ForceTierGuardFail != nil &&
		m.Eng.ForceTierGuardFail(m.Code, id) {
		m.pendingDeopt = true
	}
}

// KindOf implements Machine (guard_class over kinds in trace terms).
func (m *TierMachine) KindOf(a TV) heap.Kind {
	m.guard()
	return m.DirectMachine.KindOf(a)
}

// ShapeOf implements Machine (guard_class).
func (m *TierMachine) ShapeOf(a TV) *heap.Shape {
	m.guard()
	return m.DirectMachine.ShapeOf(a)
}

// IsNil implements Machine (guard_isnull).
func (m *TierMachine) IsNil(a TV) bool {
	m.guard()
	return m.DirectMachine.IsNil(a)
}

// Truth implements Machine (guard_true/guard_false).
func (m *TierMachine) Truth(a TV, site uint64) bool {
	m.guard()
	return m.DirectMachine.Truth(a, site)
}

// PromoteInt implements Machine (guard_value).
func (m *TierMachine) PromoteInt(a TV) int64 {
	m.guard()
	return m.DirectMachine.PromoteInt(a)
}

// PromoteRef implements Machine (guard_value on identity).
func (m *TierMachine) PromoteRef(a TV) *heap.Obj {
	m.guard()
	return m.DirectMachine.PromoteRef(a)
}

// IntAddOvf implements Machine (guard_no_overflow).
func (m *TierMachine) IntAddOvf(a, b TV) (TV, bool) {
	m.guard()
	return m.DirectMachine.IntAddOvf(a, b)
}

// IntSubOvf implements Machine (guard_no_overflow).
func (m *TierMachine) IntSubOvf(a, b TV) (TV, bool) {
	m.guard()
	return m.DirectMachine.IntSubOvf(a, b)
}

// IntMulOvf implements Machine (guard_no_overflow).
func (m *TierMachine) IntMulOvf(a, b TV) (TV, bool) {
	m.guard()
	return m.DirectMachine.IntMulOvf(a, b)
}
