// Package profile is a streaming cross-layer profiler: a consumer of
// the live annotation stream (Section IV's tagged nops) that maintains
// a phase/tier span stack with per-span microarchitectural deltas and
// exports timeline and aggregate views of one run.
//
// The profiler sits alongside the pintool observers on cpu.Machine: the
// machine-bound Profiler intercepts annotations, stamps each with the
// machine state and hands it to a pure Stream machine — span stack,
// well-formedness checker, and aggregation — that never touches the
// machine, so malformed streams can be fed to it directly (see
// FuzzAnnotStream). The grammar the checker enforces — which phase each
// tag opens or closes, where it may occur, which closers must repeat
// their opener's argument — is core's (core.Rule), the same table
// pintool.PhaseTracker reads; this package adds only what is the
// profiler's own: span labels, bridge relinking and instant markers.
// Phase-boundary annotations are additionally barriers, where the
// profiler re-bases on the machine's per-phase counters. Dispatch
// ticks, the one high-frequency annotation, change no span: they are
// counted and phase-checked in place and stamped only when the interval
// series needs a window boundary, their deltas riding on the next
// stamped event.
//
// Exports:
//   - Chrome trace-event JSON (Config.Chrome), loadable in
//     chrome://tracing or Perfetto, streamed during the run;
//   - folded-stack flamegraph text (Stream.WriteFolded), one line per
//     phase→tier→trace-id stack signature weighted by cycles;
//   - an interval time-series (Config.Window, Stream.WriteSeries) of
//     per-phase IPC and miss rates.
//
// Memory stays bounded for arbitrarily long runs: only aggregates (the
// folded-stack map, interval windows, per-phase snapshots) are
// retained; the Chrome trace streams to its writer with an event cap.
package profile

import (
	"io"

	"metajit/internal/core"
	"metajit/internal/cpu"
)

// DefaultMaxChromeEvents replaces a zero Config.MaxChromeEvents.
const DefaultMaxChromeEvents = 250_000

// State is the profiler's projection of machine counters: the totals it
// attributes to spans, windows, and flamegraph frames. Cycles are the
// machine's units (cpu.UnitsPerCycle), so every field is an integer
// count; only the exporters convert them to cycles or µs.
type State struct {
	Instrs      uint64
	Units       uint64
	Branches    uint64
	Mispredicts uint64
	Accesses    uint64 // cache-modeled loads + stores
	L1Miss      uint64
	L2Miss      uint64
}

// StateOf projects one counter domain.
func StateOf(c *cpu.Domain) State {
	return State{
		Instrs:      c.Instrs,
		Units:       c.Units,
		Branches:    c.CondBr + c.IndBr + c.Returns,
		Mispredicts: c.CondMiss + c.IndMiss + c.RetMiss,
		Accesses:    c.Loads + c.Stores,
		L1Miss:      c.L1Miss,
		L2Miss:      c.L2Miss,
	}
}

// Sub returns s - o field-wise.
func (s State) Sub(o State) State {
	return State{
		Instrs:      s.Instrs - o.Instrs,
		Units:       s.Units - o.Units,
		Branches:    s.Branches - o.Branches,
		Mispredicts: s.Mispredicts - o.Mispredicts,
		Accesses:    s.Accesses - o.Accesses,
		L1Miss:      s.L1Miss - o.L1Miss,
		L2Miss:      s.L2Miss - o.L2Miss,
	}
}

// Add accumulates d into s.
func (s *State) Add(d State) {
	s.Instrs += d.Instrs
	s.Units += d.Units
	s.Branches += d.Branches
	s.Mispredicts += d.Mispredicts
	s.Accesses += d.Accesses
	s.L1Miss += d.L1Miss
	s.L2Miss += d.L2Miss
}

// accrue adds the delta at-last into s.
func (s *State) accrue(at, last *State) {
	s.Instrs += at.Instrs - last.Instrs
	s.Units += at.Units - last.Units
	s.Branches += at.Branches - last.Branches
	s.Mispredicts += at.Mispredicts - last.Mispredicts
	s.Accesses += at.Accesses - last.Accesses
	s.L1Miss += at.L1Miss - last.L1Miss
	s.L2Miss += at.L2Miss - last.L2Miss
}

// Event is one annotation stamped with the machine totals at its
// retirement (inclusive of the tagged nop itself).
type Event struct {
	Tag   core.Tag
	Arg   uint64
	State State
}

// Labels resolve span identifiers to human-readable names. Nil funcs
// (or "" results) fall back to numeric labels. Returned names must be
// folded-stack safe: no spaces or semicolons (sanitized defensively).
type Labels struct {
	// Trace labels a tier-2 trace or bridge by ID (mtjit.Trace.Label of
	// mtjit.Engine.TraceByID).
	Trace func(id uint64) string
	// Baseline labels a tier-1 code object by ID (mtjit.TierCode.Label of
	// mtjit.Engine.TierCodeByID).
	Baseline func(id uint64) string
	// Method labels a tier-2 method code object by ID (as Baseline).
	Method func(id uint64) string
	// AOTFunc labels an AOT-compiled function by ID.
	AOTFunc func(id uint64) string
}

// Config tunes a profiler.
type Config struct {
	// Window enables the interval time-series: one window per Window
	// retired instructions (0 disables the series). Window boundaries
	// snap to annotation events, so windows are at least Window wide.
	Window uint64
	// Labels resolve span ids to names in exports.
	Labels Labels
	// Chrome, when non-nil, receives the Chrome trace-event JSON stream
	// during the run.
	Chrome io.Writer
	// ClockHz converts cycles to trace timestamps in µs (0: 3 GHz).
	ClockHz float64
	// MaxChromeEvents caps the trace-event stream; past the cap new
	// spans are dropped (already-open ones still close) and the trace
	// tail records the drop count (0: DefaultMaxChromeEvents).
	MaxChromeEvents int
	// SpanSink, when non-nil, receives every span as it closes
	// (including the implicit interp root, delivered at Finish). The
	// request tracer uses it to link a run's phase spans to the serving
	// cluster's span tree; consumers must bound their own retention —
	// long runs close arbitrarily many spans.
	SpanSink func(CompletedSpan)
}

// CompletedSpan is the sink's view of one closed phase/tier span:
// machine totals at open and close plus the self time attributed while
// it was top of stack. Depth is the span's nesting level (0 is the
// interp root), enough to reconstruct the stack without pointers.
type CompletedSpan struct {
	Label string
	Phase core.Phase
	Depth int
	Start State
	End   State
	Self  State
}

// gcReasonName renders a core.GCReason* code for span labels.
func gcReasonName(r uint64) string {
	switch r {
	case core.GCReasonAlloc:
		return "alloc"
	case core.GCReasonPreMajor:
		return "premajor"
	case core.GCReasonThreshold:
		return "threshold"
	case core.GCReasonExplicit:
		return "explicit"
	}
	return "unknown"
}

// sanitizeFrame makes a label safe for folded-stack output.
func sanitizeFrame(s string) string {
	out := []byte(s)
	changed := false
	for i := range out {
		if out[i] == ' ' || out[i] == ';' || out[i] < 0x20 {
			out[i] = '_'
			changed = true
		}
	}
	if !changed {
		return s
	}
	return string(out)
}
