package core

// Built-in tags. These are the framework-level and interpreter-level
// annotation points the paper inserts into RPython (Section IV): phase
// boundaries (tracing, JIT execution, calls to AOT-compiled functions from
// JIT code, garbage collection, blackhole deoptimization), the
// dispatch-loop tick used as the layer-independent measure of work, and the
// JIT-IR bookkeeping annotations used to connect traces, IR nodes, and
// assembly instructions.
//
// Tags below tagFirstDynamic are reserved; application-level tags are
// allocated from a Registry.
const (
	// TagNone is the zero Tag and is never emitted.
	TagNone Tag = iota

	// TagDispatch marks the top of the interpreter dispatch loop: one
	// annotation per guest bytecode, regardless of whether the plain
	// interpreter, the tracing meta-interpreter, or (via trace entry
	// bookkeeping) JIT-compiled code is doing the work. Arg carries the
	// number of guest bytecodes this tick represents (1 from the
	// interpreter; a trace reports its bytecode length on entry so that
	// the work meter stays exact without per-bytecode annotations in
	// compiled code).
	TagDispatch

	// Phase-boundary annotations. Enter/Leave pairs bracket framework
	// activities; the span grammar (below) says what each tag does.
	TagTraceStart     // meta-interpreter begins recording (Arg: green key hash)
	TagTraceEnd       // recording + optimize + assemble finished (Arg: trace ID)
	TagTraceAbort     // recording aborted (Arg: abort reason code)
	TagJITEnter       // execution enters JIT-compiled code (Arg: trace ID)
	TagJITLeave       // execution leaves JIT-compiled code back to interp
	TagAOTCallEnter   // JIT code calls an AOT-compiled function (Arg: func ID)
	TagAOTCallLeave   // AOT-compiled function returns to JIT code
	TagGCMinorStart   // minor (nursery) collection begins
	TagGCMinorEnd     // minor collection ends (Arg: bytes promoted)
	TagGCMajorStart   // major collection begins
	TagGCMajorEnd     // major collection ends (Arg: bytes live)
	TagBlackholeEnter // guard failure: blackhole deoptimization begins (Arg: guard ID)
	TagBlackholeLeave // interpreter state reconstructed

	// JIT-IR-level annotations.
	TagTraceCompiled // a trace or bridge was installed (Arg: trace ID)
	TagGuardFail     // a guard failed (Arg: global guard ID)
	TagBridgeEnter   // execution transferred through a bridge (Arg: bridge trace ID)

	// Tier-1 (baseline threaded-code) annotations.
	TagBaselineCompileStart // baseline compilation begins (Arg: green key hash)
	TagBaselineCompileEnd   // baseline code installed (Arg: baseline code ID)
	TagBaselineEnter        // execution enters baseline threaded code (Arg: baseline code ID)
	TagBaselineLeave        // execution leaves baseline code back to interp
	TagBaselineDeopt        // a baseline guard failed; interpreter takes over (Arg: baseline code ID)

	// TagGCSkipped marks a collection request that the collector dropped
	// because a collection was already active (Arg: the GCReason* code of
	// the dropped request). Without it a re-entrant Minor/Major request
	// would vanish from the annotation stream, invisible to checkers.
	TagGCSkipped

	// Tier-2 method-compilation annotations (the amalgamated strategy:
	// whole guest functions compiled beside traces in one engine).
	TagMethodCompileStart // method compilation begins (Arg: function code ID)
	TagMethodCompileEnd   // method code installed (Arg: method code ID)
	TagMethodEnter        // execution enters method-compiled code (Arg: method code ID)
	TagMethodLeave        // execution leaves method code back to interp
	TagMethodDeopt        // a method guard failed; interpreter takes over (Arg: method code ID)

	// tagFirstDynamic is the first tag available to Registry.Define.
	tagFirstDynamic
)

// NumBuiltinTags is the number of tag values below the dynamic range
// (TagNone included): the size of a table indexed by built-in tag.
const NumBuiltinTags = int(tagFirstDynamic)

// GC trigger reasons, carried in the Arg of TagGCMinorStart,
// TagGCMajorStart, and TagGCSkipped so profilers can attribute each
// collection span to what forced it.
const (
	GCReasonAlloc     uint64 = 1 // nursery budget exhausted at an allocation
	GCReasonPreMajor  uint64 = 2 // minor collection emptying the nursery ahead of a major
	GCReasonThreshold uint64 = 3 // old generation crossed the major threshold
	GCReasonExplicit  uint64 = 4 // external Minor()/Major() request
)

// TraceStartBridge is set in TagTraceStart's Arg when the recording is a
// bridge (low bits: the guard ID being bridged); loop recordings carry
// the green key hash (CodeID<<16|PC) with the flag clear. The flag lets
// stream consumers tell the two recording kinds apart, which the arg
// values alone cannot.
const TraceStartBridge uint64 = 1 << 40

// Phase is the framework-level execution phase taxonomy of Section V-B:
// every cycle of a meta-tracing VM's execution belongs to exactly one of
// these phases.
type Phase uint8

// The phases of meta-tracing execution (Figure 2 of the paper), extended
// with the two-tier phases: PhaseBaselineComp is tier-1 (threaded-code)
// compilation, PhaseBaseline is execution inside tier-1 code. The
// original six phases keep their paper indices; the tier-1 phases append
// so single-tier runs are bit-compatible with pre-tier accounting.
const (
	PhaseInterp       Phase = iota // plain interpreter execution
	PhaseTracing                   // meta-interpreter recording + optimize + assemble
	PhaseJIT                       // JIT-compiled trace execution
	PhaseJITCall                   // AOT-compiled functions called from JIT code
	PhaseGC                        // minor + major garbage collection
	PhaseBlackhole                 // deoptimization via the blackhole interpreter
	PhaseBaselineComp              // tier-1 baseline (threaded-code) compilation
	PhaseBaseline                  // tier-1 baseline code execution
	PhaseMethodComp                // tier-2 method compilation (amalgamated strategy)
	PhaseMethod                    // tier-2 method code execution
	NumPhases
)

var phaseNames = [NumPhases]string{
	"interp", "tracing", "jit", "jit_call", "gc", "blackhole", "basecomp", "baseline",
	"methcomp", "method",
}

// String returns the phase's short name as used in figures.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// AllPhases lists phases in presentation order.
func AllPhases() []Phase {
	out := make([]Phase, NumPhases)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

// PhaseSet is a set of phases, one bit per Phase.
type PhaseSet uint16

// AnyPhase holds every phase.
const AnyPhase PhaseSet = 1<<NumPhases - 1

// PhasesOf returns the set holding ps.
func PhasesOf(ps ...Phase) PhaseSet {
	var s PhaseSet
	for _, p := range ps {
		s |= 1 << p
	}
	return s
}

// Has reports whether p is in the set.
func (s PhaseSet) Has(p Phase) bool { return s&(1<<p) != 0 }

// TagRule is one built-in tag's row of the span grammar. Every built-in
// tag has exactly one role: an opener pushes a span of its phase, a
// closer pops the span its opener pushed, and any other tag is an event,
// which changes no span.
type TagRule struct {
	// Name names the tag in logs, error messages and instant markers.
	Name string
	// Opens is the phase an opener pushes; PhaseInterp, the root that is
	// never opened, for closers and events.
	Opens Phase
	// Closes is the opener whose span a closer pops; TagNone otherwise.
	Closes Tag
	// In is where the tag may occur: the phases an opener may open its
	// span in, or an event may retire in. A closer is checked against
	// the span it closes instead, and leaves In empty.
	In PhaseSet
	// MatchArg says a closer's Arg must equal its opener's.
	MatchArg bool
}

// Opener reports whether the tag opens a span.
func (r *TagRule) Opener() bool { return r.Opens != PhaseInterp }

// Closer reports whether the tag closes a span.
func (r *TagRule) Closer() bool { return r.Closes != TagNone }

// Transition reports whether the tag switches the accounting phase.
func (r *TagRule) Transition() bool { return r.Opener() || r.Closer() }

// Rule returns t's row of the span grammar; callers must not modify it.
// Dynamic and unknown tags read the TagNone row: an unnamed event that
// may occur in any phase.
func Rule(t Tag) *TagRule {
	if int(t) < len(grammar) {
		return &grammar[t]
	}
	return &grammar[TagNone]
}

// SpanTags returns the tags that open or close a span, in tag order:
// the tags a phase tracker registers for. The slice is shared; callers
// must not modify it.
func SpanTags() []Tag { return spanTags }

var spanTags = func() (tags []Tag) {
	for t := range grammar {
		if grammar[t].Transition() {
			tags = append(tags, Tag(t))
		}
	}
	return tags
}()

// The span grammar. Every *_start/*_enter tag opens a span, every
// *_end/*_leave tag closes the matching one, and spans nest strictly:
//
//	interp (implicit root, never opened or closed)
//	├─ tracing    trace_start .. trace_end|trace_abort    from interp only
//	├─ jit        jit_enter .. jit_leave                  from interp only
//	│   └─ jit_call  aot_call_enter .. aot_call_leave     from jit or jit_call
//	├─ blackhole  blackhole_enter .. blackhole_leave      from interp only
//	│             (a guard failure in JIT code: the executor closes the
//	│             jit span first, so the blackhole span nests in the
//	│             phase the JIT code was entered from)
//	├─ basecomp   baseline_compile_start .. _end          from interp or
//	│             baseline (a loop header crossing the tier-1 threshold
//	│             while another loop's baseline code is resident)
//	├─ baseline   baseline_enter .. baseline_leave        from interp only
//	├─ methcomp   method_compile_start .. _end            from interp or
//	│             baseline (the method tier fires at a loop header,
//	│             possibly while tier-1 code for the region is resident;
//	│             never from method residency — a compiled function is
//	│             no longer a compile candidate)
//	├─ method     method_enter .. method_leave            from interp only
//	└─ gc         gc_{minor,major}_start .. _end          from any phase
//	              except gc itself (GC interrupts anything; a major's
//	              preparatory minor runs before the major span opens)
//
// jit_leave, aot_call_leave, blackhole_leave, baseline_leave and
// method_leave repeat their opener's argument (MatchArg; the profiler
// exempts a jit span that a bridge transfer relinked). Events change no
// span but are phase-checked: dispatch ticks in
// interp/tracing/jit/baseline/method; guard_fail and bridge_enter only
// inside jit; trace_compiled in interp (installation happens after the
// tracing span closes); baseline_deopt inside baseline; method_deopt
// inside method; gc_skipped anywhere. Dynamic (application-defined)
// tags pass through unchecked.
var grammar = [NumBuiltinTags]TagRule{
	TagNone:     {In: AnyPhase},
	TagDispatch: {Name: "dispatch", In: PhasesOf(PhaseInterp, PhaseTracing, PhaseJIT, PhaseBaseline, PhaseMethod)},

	TagTraceStart:     {Name: "trace_start", Opens: PhaseTracing, In: PhasesOf(PhaseInterp)},
	TagTraceEnd:       {Name: "trace_end", Closes: TagTraceStart},
	TagTraceAbort:     {Name: "trace_abort", Closes: TagTraceStart},
	TagJITEnter:       {Name: "jit_enter", Opens: PhaseJIT, In: PhasesOf(PhaseInterp)},
	TagJITLeave:       {Name: "jit_leave", Closes: TagJITEnter, MatchArg: true},
	TagAOTCallEnter:   {Name: "aot_call_enter", Opens: PhaseJITCall, In: PhasesOf(PhaseJIT, PhaseJITCall)},
	TagAOTCallLeave:   {Name: "aot_call_leave", Closes: TagAOTCallEnter, MatchArg: true},
	TagGCMinorStart:   {Name: "gc_minor_start", Opens: PhaseGC, In: AnyPhase &^ PhasesOf(PhaseGC)},
	TagGCMinorEnd:     {Name: "gc_minor_end", Closes: TagGCMinorStart},
	TagGCMajorStart:   {Name: "gc_major_start", Opens: PhaseGC, In: AnyPhase &^ PhasesOf(PhaseGC)},
	TagGCMajorEnd:     {Name: "gc_major_end", Closes: TagGCMajorStart},
	TagBlackholeEnter: {Name: "blackhole_enter", Opens: PhaseBlackhole, In: PhasesOf(PhaseInterp)},
	TagBlackholeLeave: {Name: "blackhole_leave", Closes: TagBlackholeEnter, MatchArg: true},

	TagTraceCompiled: {Name: "trace_compiled", In: PhasesOf(PhaseInterp)},
	TagGuardFail:     {Name: "guard_fail", In: PhasesOf(PhaseJIT)},
	TagBridgeEnter:   {Name: "bridge_enter", In: PhasesOf(PhaseJIT)},

	TagBaselineCompileStart: {Name: "baseline_compile_start", Opens: PhaseBaselineComp, In: PhasesOf(PhaseInterp, PhaseBaseline)},
	TagBaselineCompileEnd:   {Name: "baseline_compile_end", Closes: TagBaselineCompileStart},
	TagBaselineEnter:        {Name: "baseline_enter", Opens: PhaseBaseline, In: PhasesOf(PhaseInterp)},
	TagBaselineLeave:        {Name: "baseline_leave", Closes: TagBaselineEnter, MatchArg: true},
	TagBaselineDeopt:        {Name: "baseline_deopt", In: PhasesOf(PhaseBaseline)},

	TagGCSkipped: {Name: "gc_skipped", In: AnyPhase},

	TagMethodCompileStart: {Name: "method_compile_start", Opens: PhaseMethodComp, In: PhasesOf(PhaseInterp, PhaseBaseline)},
	TagMethodCompileEnd:   {Name: "method_compile_end", Closes: TagMethodCompileStart},
	TagMethodEnter:        {Name: "method_enter", Opens: PhaseMethod, In: PhasesOf(PhaseInterp)},
	TagMethodLeave:        {Name: "method_leave", Closes: TagMethodEnter, MatchArg: true},
	TagMethodDeopt:        {Name: "method_deopt", In: PhasesOf(PhaseMethod)},
}
