// Package pintool implements the paper's interception side: tools that
// observe cross-layer annotations at the machine level, as the custom
// PinTool of Section IV does with tagged nop instructions.
//
// Tools are cpu observers, each registered for the tags it reads, so the
// machine hands an annotation only to the tools that act on it (the
// per-bytecode dispatch tick reaches the WorkMeter alone). PhaseTracker
// reconstructs the framework phase (Figures 2-4, Table IV), WorkMeter
// measures bytecode rate for warmup curves (Figure 5), AOTAttributor
// attributes JIT-call time to AOT entry points (Table III), and
// TraceEventCounter tallies JIT lifecycle events. The per-trace IR
// statistics of Figures 6-9 are not observed here: internal/jitlog reads
// them from the engine's own record.
package pintool

import (
	"metajit/internal/core"
	"metajit/internal/cpu"
)

// PhaseTracker reconstructs the phase stack from phase-boundary
// annotations, read against the span grammar (core.Rule), and drives the
// machine's accounting domain.
type PhaseTracker struct {
	m     *cpu.Machine
	stack []core.Phase
	cur   core.Phase

	// Transitions counts phase switches (diagnostics).
	Transitions uint64
}

// NewPhaseTracker attaches a phase tracker to m.
func NewPhaseTracker(m *cpu.Machine) *PhaseTracker {
	t := &PhaseTracker{m: m, cur: core.PhaseInterp}
	m.Observe(t, core.SpanTags()...)
	return t
}

func (t *PhaseTracker) push(p core.Phase) {
	t.stack = append(t.stack, t.cur)
	t.cur = p
	t.m.SetPhase(p)
	t.Transitions++
}

func (t *PhaseTracker) pop() {
	if n := len(t.stack); n > 0 {
		t.cur = t.stack[n-1]
		t.stack = t.stack[:n-1]
	} else {
		t.cur = core.PhaseInterp
	}
	t.m.SetPhase(t.cur)
	t.Transitions++
}

// OnAnnotation implements core.Observer.
func (t *PhaseTracker) OnAnnotation(a core.Annotation, _, _ uint64) {
	switch r := core.Rule(a.Tag); {
	case r.Opener():
		t.push(r.Opens)
	case r.Closer():
		t.pop()
	}
}

// Current returns the phase being attributed now.
func (t *PhaseTracker) Current() core.Phase { return t.cur }

// Sample is one point of a time series: machine totals plus work done.
type Sample struct {
	Instrs    uint64
	Cycles    uint64
	Bytecodes uint64
	// PhaseInstrs snapshots per-phase instruction counts (Figure 3's
	// phase timeline).
	PhaseInstrs [core.NumPhases]uint64
}

// WorkMeter counts guest bytecodes from dispatch annotations — the
// layer-independent measure of work of Section IV — and records samples at
// a fixed instruction interval for warmup curves and phase timelines.
type WorkMeter struct {
	m *cpu.Machine

	Bytecodes uint64
	Samples   []Sample

	interval   uint64
	nextSample uint64
}

// NewWorkMeter attaches a work meter sampling every interval instructions
// (0 disables sampling).
func NewWorkMeter(m *cpu.Machine, interval uint64) *WorkMeter {
	w := &WorkMeter{m: m, interval: interval, nextSample: interval}
	m.Observe(w, core.TagDispatch)
	return w
}

// OnAnnotation implements core.Observer.
func (w *WorkMeter) OnAnnotation(a core.Annotation, instrs, cycles uint64) {
	if a.Tag != core.TagDispatch {
		return
	}
	w.Bytecodes += a.Arg
	if w.interval != 0 && instrs >= w.nextSample {
		s := Sample{Instrs: instrs, Cycles: cycles, Bytecodes: w.Bytecodes}
		for p := core.Phase(0); p < core.NumPhases; p++ {
			s.PhaseInstrs[p] = w.m.PhaseCounters(p).Instrs
		}
		w.Samples = append(w.Samples, s)
		for w.nextSample <= instrs {
			w.nextSample += w.interval
		}
	}
}

// AOTAttributor accumulates cycles spent in AOT-compiled functions called
// from JIT code, by function ID (Table III). Nested AOT calls attribute to
// the outermost entry point, matching the paper ("time spent in called
// functions is counted as part of these entry points").
type AOTAttributor struct {
	// funcs is indexed by function ID: aot.Runtime numbers its functions
	// densely from 1, so a slice holds them without a map lookup per call.
	funcs []aotTally

	depth      int
	curFunc    uint32
	enterCycle uint64
}

// aotTally is one function's outermost calls and the cycles of those that
// returned.
type aotTally struct {
	cycles, calls uint64
	returned      bool
}

// NewAOTAttributor attaches an attributor to m.
func NewAOTAttributor(m *cpu.Machine) *AOTAttributor {
	a := &AOTAttributor{}
	m.Observe(a, core.TagAOTCallEnter, core.TagAOTCallLeave)
	return a
}

// Func returns the cycles attributed to function id and the outermost
// calls made to it; ok is false until one of those calls has returned.
func (a *AOTAttributor) Func(id uint32) (cycles, calls uint64, ok bool) {
	if int(id) >= len(a.funcs) {
		return 0, 0, false
	}
	f := &a.funcs[id]
	return f.cycles, f.calls, f.returned
}

// OnAnnotation implements core.Observer.
func (a *AOTAttributor) OnAnnotation(an core.Annotation, instrs, cycles uint64) {
	switch an.Tag {
	case core.TagAOTCallEnter:
		if a.depth == 0 {
			a.curFunc = uint32(an.Arg)
			a.enterCycle = cycles
			if n := int(a.curFunc) + 1; n > len(a.funcs) {
				a.funcs = append(a.funcs, make([]aotTally, n-len(a.funcs))...)
			}
			a.funcs[a.curFunc].calls++
		}
		a.depth++
	case core.TagAOTCallLeave:
		a.depth--
		if a.depth == 0 {
			f := &a.funcs[a.curFunc]
			f.cycles += cycles - a.enterCycle
			f.returned = true
		}
		if a.depth < 0 {
			a.depth = 0
		}
	}
}

// TraceEventCounter tallies JIT lifecycle events (compilations, aborts,
// guard failures, bridge entries) for reporting.
type TraceEventCounter struct {
	Compiled     uint64
	Aborts       uint64
	GuardFails   uint64
	BridgeEnters uint64
	MinorGCs     uint64
	MajorGCs     uint64
	Deopts       uint64 // blackhole entries

	// Tier-1 (baseline) lifecycle events.
	BaselineCompiles uint64
	BaselineEnters   uint64
	BaselineDeopts   uint64

	// Tier-2 (method) lifecycle events.
	MethodCompiles uint64
	MethodEnters   uint64
	MethodDeopts   uint64
}

// NewTraceEventCounter attaches a counter to m, registered for the tags
// its switch counts.
func NewTraceEventCounter(m *cpu.Machine) *TraceEventCounter {
	c := &TraceEventCounter{}
	m.Observe(core.ObserverFunc(func(a core.Annotation, _, _ uint64) {
		switch a.Tag {
		case core.TagTraceCompiled:
			c.Compiled++
		case core.TagTraceAbort:
			c.Aborts++
		case core.TagGuardFail:
			c.GuardFails++
		case core.TagBridgeEnter:
			c.BridgeEnters++
		case core.TagGCMinorStart:
			c.MinorGCs++
		case core.TagGCMajorStart:
			c.MajorGCs++
		case core.TagBlackholeEnter:
			c.Deopts++
		case core.TagBaselineCompileEnd:
			c.BaselineCompiles++
		case core.TagBaselineEnter:
			c.BaselineEnters++
		case core.TagBaselineDeopt:
			c.BaselineDeopts++
		case core.TagMethodCompileEnd:
			c.MethodCompiles++
		case core.TagMethodEnter:
			c.MethodEnters++
		case core.TagMethodDeopt:
			c.MethodDeopts++
		}
	}),
		core.TagTraceCompiled, core.TagTraceAbort, core.TagGuardFail, core.TagBridgeEnter,
		core.TagGCMinorStart, core.TagGCMajorStart, core.TagBlackholeEnter,
		core.TagBaselineCompileEnd, core.TagBaselineEnter, core.TagBaselineDeopt,
		core.TagMethodCompileEnd, core.TagMethodEnter, core.TagMethodDeopt)
	return c
}
