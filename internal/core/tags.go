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
	// activities; the PhaseTracker tool reconstructs a phase stack from
	// them (GC can interrupt any phase, blackhole interrupts JIT, etc.).
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

	// Tier-1 (baseline threaded-code) annotations. Enter/Leave and
	// CompileStart/CompileEnd bracket phases like the tracing pairs
	// above; Deopt is an event marker (a baseline guard fell back to the
	// interpreter) with no phase effect, like TagGuardFail.
	TagBaselineCompileStart // baseline compilation begins (Arg: green key hash)
	TagBaselineCompileEnd   // baseline code installed (Arg: baseline code ID)
	TagBaselineEnter        // execution enters baseline threaded code (Arg: baseline code ID)
	TagBaselineLeave        // execution leaves baseline code back to interp
	TagBaselineDeopt        // a baseline guard failed; interpreter takes over (Arg: baseline code ID)

	// TagGCSkipped marks a collection request that the collector dropped
	// because a collection was already active (Arg: the GCReason* code of
	// the dropped request). It is an event marker with no phase effect:
	// without it a re-entrant Minor/Major request would vanish from the
	// annotation stream entirely, invisible to stream checkers.
	TagGCSkipped

	// Tier-2 method-compilation annotations (the amalgamated strategy:
	// whole guest functions compiled beside traces in one engine).
	// Enter/Leave and CompileStart/CompileEnd bracket phases like the
	// baseline pairs above; Deopt is an event marker (a method guard fell
	// back to the interpreter) with no phase effect.
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

var builtinTagNames = map[Tag]string{
	TagDispatch:       "dispatch",
	TagTraceStart:     "trace_start",
	TagTraceEnd:       "trace_end",
	TagTraceAbort:     "trace_abort",
	TagJITEnter:       "jit_enter",
	TagJITLeave:       "jit_leave",
	TagAOTCallEnter:   "aot_call_enter",
	TagAOTCallLeave:   "aot_call_leave",
	TagGCMinorStart:   "gc_minor_start",
	TagGCMinorEnd:     "gc_minor_end",
	TagGCMajorStart:   "gc_major_start",
	TagGCMajorEnd:     "gc_major_end",
	TagBlackholeEnter: "blackhole_enter",
	TagBlackholeLeave: "blackhole_leave",
	TagTraceCompiled:  "trace_compiled",
	TagGuardFail:      "guard_fail",
	TagBridgeEnter:    "bridge_enter",

	TagBaselineCompileStart: "baseline_compile_start",
	TagBaselineCompileEnd:   "baseline_compile_end",
	TagBaselineEnter:        "baseline_enter",
	TagBaselineLeave:        "baseline_leave",
	TagBaselineDeopt:        "baseline_deopt",

	TagGCSkipped: "gc_skipped",

	TagMethodCompileStart: "method_compile_start",
	TagMethodCompileEnd:   "method_compile_end",
	TagMethodEnter:        "method_enter",
	TagMethodLeave:        "method_leave",
	TagMethodDeopt:        "method_deopt",
}

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
