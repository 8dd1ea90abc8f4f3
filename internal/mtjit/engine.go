package mtjit

import (
	"fmt"
	"math"
	"slices"

	"metajit/internal/aot"
	"metajit/internal/core"
	"metajit/internal/cpu"
	"metajit/internal/heap"
	"metajit/internal/isa"
)

// EngineStats accumulates JIT bookkeeping for reporting.
type EngineStats struct {
	LoopsCompiled   int
	BridgesCompiled int
	Aborts          int
	AbortsTooLong   int
	AbortsLeftFrame int
	OpsRecorded     int
	OpsRemoved      int // by the optimizer
	GuardFailures   uint64
	Invalidated     int // traces killed by a global mutation

	// Tier-1 (baseline threaded-code) bookkeeping.
	BaselinesCompiled   int
	BaselineInvalidated int // killed by promotion, method install or global mutation
	BaselineEnters      uint64
	BaselineDeopts      uint64

	// Tier-2 (method compilation) bookkeeping.
	MethodsCompiled   int
	MethodInvalidated int // killed by global mutation
	MethodEnters      uint64
	MethodDeopts      uint64

	// Tier-controller bookkeeping: promotion decisions the adaptive
	// controller made under a non-static threshold, and method-tier
	// decisions. Zero on non-adaptive engines by construction.
	CtlBackoffDecisions int // TierTrace fired under an abort-raised threshold
	CtlEarlyPromotions  int // TierTrace fired under a warmup-lowered threshold
	CtlMethodDecisions  int // TierMethod decisions
}

// Engine is the meta-tracing JIT: it owns hot-loop counters, recordings in
// progress, the trace cache, guard-failure bookkeeping, and bridges.
type Engine struct {
	RT *aot.Runtime
	H  *heap.Heap
	S  *cpu.Machine

	// Profile is the cost profile of the plain interpreter the engine
	// falls back to.
	Profile *CostProfile
	// Opts selects optimizer passes (ablations toggle these).
	Opts OptConfig
	// Threshold is the loop-header count that triggers tracing (PyPy's
	// --jit threshold, scaled to the simulator's workload sizes).
	Threshold int
	// BridgeThreshold is the guard-failure count that triggers bridge
	// compilation.
	BridgeThreshold int
	// TraceLimit aborts recordings that grow too long.
	TraceLimit int
	// MaxAborts blacklists a loop after this many failed recordings.
	MaxAborts int
	// BaselineThreshold, when positive, enables the tier-1 baseline
	// compiler: loop headers crossing it (well below Threshold) get
	// threaded-code compilation while the hot counter keeps running.
	// Zero disables the tier (single-tier behavior, bit-identical to
	// the pre-tier engine).
	BaselineThreshold int
	// MethodThreshold, when positive, enables the tier-2 method
	// compiler (the amalgamated strategy): a guest function whose loop
	// headers accumulate this many crossings becomes eligible for
	// whole-function compilation when the tier controller judges its
	// region trace-hostile (see Engine.hostile). Zero disables the
	// tier (bit-identical to the pre-method engine).
	MethodThreshold int
	// Adaptive enables the feedback tier controller: the static
	// Threshold is reshaped per loop header from the engine's own
	// observed event history (trace-abort backoff, warmup-slope early
	// promotion; see controller.go). Decisions are a pure function of
	// per-engine state, so runs stay deterministic and replayable.
	Adaptive bool

	// OnCompile, if set, is invoked for every installed trace or bridge
	// (the PyPy-log hook).
	OnCompile func(*Trace)

	// ForceGuardFail, if set, is consulted for every guard that passed
	// its runtime check during trace execution; returning true makes the
	// guard fail anyway. Deoptimization testing hook: it exercises the
	// bridge/blackhole exit paths at guards whose conditions hold.
	ForceGuardFail func(*Trace, *Op) bool

	// OnTierCompile, if set, is invoked for every installed lower-tier
	// compilation (the tier-1/tier-2 analog of OnCompile).
	OnTierCompile func(*TierCode)

	// ForceTierGuardFail, if set, is consulted at every generic guard
	// executed in lower-tier code; returning true deoptimizes to the
	// interpreter at the next bytecode boundary. Lower-tier analog of
	// ForceGuardFail; the code's Tier field tells the tiers apart.
	ForceTierGuardFail func(*TierCode, uint64) bool

	counters  map[GreenKey]int
	blacklist map[GreenKey]int
	traces    map[GreenKey]*Trace
	all       []*Trace
	// guards maps a GuardID to the guard op of the installed trace that
	// carries it (nil for IDs whose guard was optimized away or whose
	// recording aborted): where a bridge is attached and where tests and
	// Validate find a guard's counters. The executor never reads it — a
	// failing guard has its op in hand.
	guards []*Op

	// globalDeps maps a global name to the installed traces that
	// constant-folded its value (see TracingMachine.DependOnGlobal).
	globalDeps map[string][]*Trace

	// tiers is the lower-tier bookkeeping, one entry per Tier (tier.go).
	tiers [NumTiers]tierState
	// methodCounters is per-function hotness: all of a function's loop
	// headers pool into one counter (maybeMethod).
	methodCounters map[uint32]int

	// ctlLog records promotion decisions in the order they were made;
	// only maintained when the method tier or the adaptive controller
	// is on (TestControllerDeterministic compares logs across runs).
	ctlLog []ControllerDecision

	guardSeq uint32
	traceSeq uint32
	tracing  *TracingMachine

	jitPC   *isa.PCAlloc
	bhSite  isa.Site
	cmpSite isa.Site
	lastOvf bool

	// active holds the live register file of every Execute in progress
	// with the trace it belongs to, innermost last, by value: Execute
	// rewrites its own entry on a bridge or loop transfer, so Roots always
	// scans the file in use. Files not listed here (pooled on their trace,
	// see Trace.getRegs) are invisible to the simulated GC.
	active []activeFile
	// scratch is Execute's marshalling space, one entry per nesting depth.
	scratch []*execScratch
	// exit, exitFrames (with each frame's Vals) and virt are what a trace
	// exit hands the driver; the next Execute overwrites them.
	exit       ExitState
	exitFrames []FrameVals
	virt       []virtObj
	stats      EngineStats
	// promotions counts loop headers whose baseline code a loop trace
	// superseded. It is not in EngineStats, whose fields are on the wire.
	promotions int
}

// PoisonScratch is a test hook. When set, every run-owned buffer is
// scribbled over the moment its validity ends: a thunk's args when the
// thunk returns, the ExitState buffers when the next Execute begins. A
// thunk or driver that kept such a buffer then reads poisonValue (a
// reference to no object) instead of plausible stale data. Set it only
// while no simulation is running.
var PoisonScratch bool

var poisonValue = heap.Value{Kind: heap.KindRef, I: -0x2152411021524111, F: math.NaN()}

func poison(vals []heap.Value) {
	for i := range vals {
		vals[i] = poisonValue
	}
}

// poisonExit scribbles the exit buffers, spare capacity included.
func (e *Engine) poisonExit() {
	for i := range e.exitFrames {
		fv := &e.exitFrames[i]
		poison(fv.Vals[:cap(fv.Vals)])
		*fv = FrameVals{CodeID: ^uint32(0), PC: -1, NumLocals: -1, Vals: fv.Vals}
	}
	e.exit = ExitState{}
}

// activeFile is one register file in use and the trace whose layout it
// has.
type activeFile struct {
	t    *Trace
	regs []heap.Value
}

// execScratch is the operand marshalling space of one Execute nesting
// depth: loop-closing jump arguments and residual-call arguments.
type execScratch struct {
	jumpTmp, callArgs []heap.Value
}

// virtObj is one allocation-removed object rebuilt at a guard failure.
type virtObj struct {
	ref Ref
	obj *heap.Obj
}

// Config bundles the Engine's tunable tier thresholds. Constructing an
// engine through a Config validates and clamps degenerate threshold
// orderings (see normalize) instead of letting the tier state machine
// silently misbehave on inverted values.
type Config struct {
	// Threshold is the loop-header count that triggers tracing.
	Threshold int
	// BridgeThreshold is the guard-failure count that triggers bridge
	// compilation.
	BridgeThreshold int
	// TraceLimit aborts recordings that grow too long.
	TraceLimit int
	// MaxAborts blacklists a loop after this many failed recordings.
	MaxAborts int
	// BaselineThreshold enables the tier-1 baseline compiler when
	// positive (must stay below Threshold; normalize enforces it).
	BaselineThreshold int
	// MethodThreshold enables the tier-2 method compiler when positive.
	MethodThreshold int
	// Adaptive enables the feedback tier controller.
	Adaptive bool
}

// DefaultConfig returns the default thresholds (PyPy's, scaled to the
// simulator's workload sizes); the baseline and method tiers are off
// and promotion is static.
func DefaultConfig() Config {
	return Config{
		Threshold:       57,
		BridgeThreshold: 17,
		TraceLimit:      6000,
		MaxAborts:       4,
	}
}

// normalize validates and clamps a Config so a constructed engine never
// runs with degenerate tier orderings: non-positive core thresholds
// fall back to their defaults (a BridgeThreshold that is zero or
// negative could never equal a failure count, silently disabling
// bridges), a negative tier threshold disables that tier, and a
// BaselineThreshold at or above Threshold is pulled down to
// Threshold-1 — tier-1 must engage below the tracing threshold or the
// baseline compiler would never run before promotion.
func (c Config) normalize() Config {
	d := DefaultConfig()
	if c.Threshold <= 0 {
		c.Threshold = d.Threshold
	}
	if c.BridgeThreshold <= 0 {
		c.BridgeThreshold = d.BridgeThreshold
	}
	if c.TraceLimit <= 0 {
		c.TraceLimit = d.TraceLimit
	}
	if c.MaxAborts <= 0 {
		c.MaxAborts = d.MaxAborts
	}
	if c.BaselineThreshold < 0 {
		c.BaselineThreshold = 0
	}
	if c.MethodThreshold < 0 {
		c.MethodThreshold = 0
	}
	if c.BaselineThreshold >= c.Threshold {
		c.BaselineThreshold = c.Threshold - 1
	}
	return c
}

// NewEngine returns an engine over the runtime with default thresholds.
// It registers itself as a GC root provider (live trace registers and
// trace constants are roots).
func NewEngine(rt *aot.Runtime, profile *CostProfile) *Engine {
	return NewEngineConfig(rt, profile, DefaultConfig())
}

// NewEngineConfig returns an engine with the normalized config applied.
func NewEngineConfig(rt *aot.Runtime, profile *CostProfile, cfg Config) *Engine {
	cfg = cfg.normalize()
	e := &Engine{
		RT:                rt,
		H:                 rt.H,
		S:                 rt.H.Stream(),
		Profile:           profile,
		Opts:              AllOpts(),
		Threshold:         cfg.Threshold,
		BridgeThreshold:   cfg.BridgeThreshold,
		TraceLimit:        cfg.TraceLimit,
		MaxAborts:         cfg.MaxAborts,
		BaselineThreshold: cfg.BaselineThreshold,
		MethodThreshold:   cfg.MethodThreshold,
		Adaptive:          cfg.Adaptive,
		counters:          map[GreenKey]int{},
		blacklist:         map[GreenKey]int{},
		traces:            map[GreenKey]*Trace{},
		globalDeps:        map[string][]*Trace{},
		methodCounters:    map[uint32]int{},
		jitPC:             isa.NewPCAlloc(isa.RegionJITCode),
		bhSite:            rt.PC.Site(),
		cmpSite:           rt.PC.Site(),
	}
	e.initTiers()
	rt.H.AddRoots(e)
	return e
}

// leaveExecute pops the innermost Execute's register file (deferred, so
// a guest error unwinding through a residual call leaves the root set
// consistent).
func (e *Engine) leaveExecute() {
	d := len(e.active) - 1
	a := e.active[d]
	a.t.putRegs(a.regs)
	e.active[d] = activeFile{}
	e.active = e.active[:d]
}

// Roots implements heap.RootProvider: live JIT register files and trace
// constants keep objects alive. Of a register file only the registers are
// visited, in register order; the constants below them are rooted once
// per trace through Trace.Consts. The visit order feeds the simulated
// collector (promotion order is address order), so it is part of the
// results.
func (e *Engine) Roots(visit func(*heap.Obj)) {
	for _, a := range e.active {
		for _, v := range a.regs[a.t.regBase+1:] {
			if v.Kind == heap.KindRef && v.O != nil {
				visit(v.O)
			}
		}
	}
	for _, t := range e.all {
		for _, c := range t.Consts {
			if c.Kind == heap.KindRef && c.O != nil {
				visit(c.O)
			}
		}
	}
	if e.tracing != nil {
		for _, c := range e.tracing.consts {
			if c.Kind == heap.KindRef && c.O != nil {
				visit(c.O)
			}
		}
	}
}

// Stats returns a copy of the engine statistics.
func (e *Engine) Stats() EngineStats { return e.stats }

// BaselinePromotions returns how many loop headers were promoted from
// tier-1 baseline code to a compiled trace.
func (e *Engine) BaselinePromotions() int { return e.promotions }

// Traces returns every installed trace and bridge in compile order.
func (e *Engine) Traces() []*Trace { return e.all }

// Tracing returns the recording in progress, or nil.
func (e *Engine) Tracing() *TracingMachine { return e.tracing }

// LookupTrace returns the compiled loop trace for a green key, or nil.
func (e *Engine) LookupTrace(key GreenKey) *Trace { return e.traces[key] }

// guard returns the installed guard op carrying id, or nil.
func (e *Engine) guard(id uint32) *Op {
	if int(id) < len(e.guards) {
		return e.guards[id]
	}
	return nil
}

// GuardResume returns the resume state of an installed guard (nil for an
// unknown ID): what a driver answering ExitState.StartBridgeGuard hands to
// BeginBridge.
func (e *Engine) GuardResume(guardID uint32) *ResumeState {
	if g := e.guard(guardID); g != nil {
		return g.Resume
	}
	return nil
}

func (e *Engine) nextGuardID() uint32 {
	e.guardSeq++
	return e.guardSeq
}

// beginTraceBlock is the fixed cost of entering recording mode (tracer
// state setup), shared by loop and bridge recordings.
var beginTraceBlock = isa.NewBlock(isa.CC(isa.ALU, 60), isa.CC(isa.Store, 20))

// BeginTracing starts recording the loop at key. The frame's slots are
// seeded with input refs; snap captures resume metadata at guards. The
// returned TracingMachine replaces the driver's Machine until the loop
// closes or aborts.
func (e *Engine) BeginTracing(key GreenKey, fr FrameAdapter, snap SnapshotFn) *TracingMachine {
	e.S.Annot(core.TagTraceStart, uint64(key.CodeID)<<16|uint64(key.PC))
	tm := newTracingMachine(NewDirectMachine(e.RT, e.Profile), e)
	tm.snapshot = snap
	tm.rootKey = key
	n := fr.NumSlots()
	slots := make([]Ref, n)
	for i := 0; i < n; i++ {
		r := Ref(i + 1)
		fr.SetSlotRef(i, r)
		slots[i] = r
	}
	tm.nextReg = Ref(n + 1)
	tm.entry = &ResumeState{Frames: []FrameSnap{{
		CodeID:    fr.CodeID(),
		PC:        fr.GuestPC(),
		NumLocals: fr.NumLocals(),
		Slots:     slots,
		Ctor:      fr.IsCtor(),
	}}}
	e.tracing = tm
	e.S.Block(beginTraceBlock)
	return tm
}

// BeginBridge starts recording a bridge for guardID from the reconstructed
// frame chain (trace-root frame first).
func (e *Engine) BeginBridge(guardID uint32, resume *ResumeState, frames []FrameAdapter, snap SnapshotFn) *TracingMachine {
	e.S.Annot(core.TagTraceStart, core.TraceStartBridge|uint64(guardID))
	tm := newTracingMachine(NewDirectMachine(e.RT, e.Profile), e)
	tm.snapshot = snap
	tm.bridge = true
	tm.fromGrd = guardID
	next := Ref(1)
	snaps := make([]FrameSnap, len(frames))
	for fi, fr := range frames {
		n := fr.NumSlots()
		slots := make([]Ref, n)
		for i := 0; i < n; i++ {
			fr.SetSlotRef(i, next)
			slots[i] = next
			next++
		}
		snaps[fi] = FrameSnap{
			CodeID:    fr.CodeID(),
			PC:        fr.GuestPC(),
			NumLocals: fr.NumLocals(),
			Slots:     slots,
			Ctor:      fr.IsCtor(),
		}
	}
	tm.nextReg = next
	tm.entry = &ResumeState{Frames: snaps}
	if resume != nil && len(resume.Frames) != len(frames) {
		panic("mtjit: bridge frame chain does not match guard resume")
	}
	e.tracing = tm
	e.S.Block(beginTraceBlock)
	return tm
}

// MPAction is the driver instruction returned from a merge point reached
// while tracing.
type MPAction uint8

// Merge-point actions.
const (
	// MPContinue: keep recording through this merge point (inlining).
	MPContinue MPAction = iota
	// MPLoopClosed: the recording was finished and installed (or ended
	// in call_assembler); the driver resumes plain interpretation.
	MPLoopClosed
	// MPAborted: the recording was abandoned; resume plain
	// interpretation.
	MPAborted
)

// AtMergePoint is called by the driver at every loop header crossed while
// recording. depth is the guest frame depth relative to the trace root
// (1 = the root frame).
func (e *Engine) AtMergePoint(tm *TracingMachine, key GreenKey, depth int, fr FrameAdapter) MPAction {
	if tm.aborted {
		e.AbortTrace(tm)
		return MPAborted
	}
	if depth == 1 && !tm.bridge && key == tm.rootKey {
		e.finishLoop(tm, key, fr)
		return MPLoopClosed
	}
	if target := e.traces[key]; target != nil {
		if tm.bridge && depth == 1 {
			e.finishBridgeJump(tm, target, fr)
		} else {
			e.finishCallAssembler(tm, target)
		}
		return MPLoopClosed
	}
	return MPContinue
}

// AbortTrace abandons the active recording.
func (e *Engine) AbortTrace(tm *TracingMachine, reason ...AbortReason) {
	r := tm.reason
	if len(reason) > 0 {
		r = reason[0]
	}
	e.S.Annot(core.TagTraceAbort, uint64(r))
	e.stats.Aborts++
	switch r {
	case AbortTooLong:
		e.stats.AbortsTooLong++
	case AbortLeftFrame:
		e.stats.AbortsLeftFrame++
	}
	if !tm.bridge {
		e.blacklist[tm.rootKey]++
	}
	e.tracing = nil
}

// finishLoop closes a loop recording with a jump back to its own header.
func (e *Engine) finishLoop(tm *TracingMachine, key GreenKey, fr FrameAdapter) {
	args := make([]Ref, fr.NumSlots())
	for i := range args {
		args[i] = fr.SlotRef(i)
	}
	tm.rec(Op{Opc: OpJump, Args: args}, false)
	t := e.install(tm, key, false)
	e.traces[key] = t
}

// finishBridgeJump closes a bridge with a jump into an existing loop.
func (e *Engine) finishBridgeJump(tm *TracingMachine, target *Trace, fr FrameAdapter) {
	args := make([]Ref, fr.NumSlots())
	for i := range args {
		args[i] = fr.SlotRef(i)
	}
	if len(args) != len(target.Entry.Frames[0].Slots) {
		// Shapes disagree (stack depth changed): exit via finish
		// instead; the interpreter will enter the loop itself.
		tm.rec(Op{Opc: OpFinish, Resume: tm.captureResume()}, false)
	} else {
		tm.rec(Op{Opc: OpJump, Args: args, Target: target}, false)
	}
	t := e.install(tm, target.Key, true)
	e.guards[tm.fromGrd].Bridge = t
}

// finishCallAssembler ends a recording that reached another compiled loop:
// the trace transfers into that loop's assembly.
func (e *Engine) finishCallAssembler(tm *TracingMachine, target *Trace) {
	tm.rec(Op{
		Opc:    OpCallAssembler,
		Target: target,
		Resume: tm.captureResume(),
	}, false)
	if tm.bridge {
		t := e.install(tm, target.Key, true)
		e.guards[tm.fromGrd].Bridge = t
	} else {
		t := e.install(tm, tm.rootKey, false)
		e.traces[tm.rootKey] = t
	}
}

// install optimizes, assembles, and publishes a recording.
func (e *Engine) install(tm *TracingMachine, key GreenKey, bridge bool) *Trace {
	e.traceSeq++
	t := &Trace{
		ID:       e.traceSeq,
		Key:      key,
		Bridge:   bridge,
		Entry:    tm.entry,
		Ops:      tm.ops,
		Consts:   tm.consts,
		NumRegs:  int(tm.nextReg),
		BCLength: tm.bcCount,
	}
	recorded := len(t.Ops)
	removed := Optimize(t, e.Opts)
	e.assemble(t)
	t.predecode()
	if n := int(e.guardSeq) + 1; n > len(e.guards) {
		e.guards = slices.Grow(e.guards, n-len(e.guards))[:n]
	}
	for i := range t.Ops {
		if op := &t.Ops[i]; op.Opc.IsGuard() {
			if e.guards[op.GuardID] != nil {
				panic(fmt.Sprintf("mtjit: guard %d installed twice", op.GuardID))
			}
			e.guards[op.GuardID] = op
		}
	}

	// Optimizer + assembler cost, proportional to the recorded ops
	// (attributed to the tracing phase, as in the paper).
	e.S.Ops(isa.ALU, 150*recorded)
	e.S.Ops(isa.Load, 55*recorded)
	e.S.Ops(isa.Store, 30*recorded)
	for i := 0; i < recorded/4+1; i++ {
		e.S.Branch(e.cmpSite.PC(), i&3 != 0)
	}

	e.stats.OpsRecorded += recorded
	e.stats.OpsRemoved += removed
	if bridge {
		e.stats.BridgesCompiled++
	} else {
		e.stats.LoopsCompiled++
	}
	for name := range tm.deps {
		e.globalDeps[name] = append(e.globalDeps[name], t)
	}
	if !bridge {
		// Promotion: the loop trace supersedes any tier-1 code for the
		// same header.
		if bc := e.liveTier(BaselineTier, key); bc != nil {
			e.invalidateTier(bc)
			e.promotions++
		}
	}
	e.all = append(e.all, t)
	e.tracing = nil
	e.S.Annot(core.TagTraceEnd, uint64(t.ID))
	e.S.Annot(core.TagTraceCompiled, uint64(t.ID))
	if e.OnCompile != nil {
		e.OnCompile(t)
	}
	return t
}

// assemble assigns the trace's simulated code region.
func (e *Engine) assemble(t *Trace) {
	t.AsmLen = 0
	for i := range t.Ops {
		t.AsmLen += t.Ops[i].Opc.AsmLen()
	}
	t.AsmBase = e.jitPC.Take(uint64(t.AsmLen)*4 + 64)
}

// InvalidateGlobal kills the lower-tier code that embeds the named
// global's value (method code, then baseline code), then every installed
// trace that constant-folded it: each trace is marked invalidated (its
// guard_not_invalidated ops fail from now on, deoptimizing any execution
// that reaches them) and unlinked from the dispatch tables so it is
// never entered fresh.
// The traces stay in the compile log (Traces/stats) — invalidation does
// not rewrite history, it only stops the code from running.
func (e *Engine) InvalidateGlobal(name string) {
	e.invalidateTierDeps(name)
	ts := e.globalDeps[name]
	if len(ts) == 0 {
		return
	}
	delete(e.globalDeps, name)
	// Walking the dependency list and patching the guards costs a few
	// instructions per dependent trace, as in RPython's invalidation.
	e.S.Ops(isa.ALU, 6*len(ts))
	e.S.Ops(isa.Store, 2*len(ts))
	for _, t := range ts {
		if t.Invalidated {
			continue
		}
		t.Invalidated = true
		e.stats.Invalidated++
		if e.traces[t.Key] == t {
			delete(e.traces, t.Key)
		}
		for _, g := range e.guards {
			if g != nil && g.Bridge == t {
				g.Bridge = nil
			}
		}
	}
}
