package profile

import (
	"fmt"
	"math"

	"metajit/internal/core"
)

// instants are the tags the Chrome trace marks as instant events: the
// JIT's and the tiers' lifecycle events, and an abandoned recording.
var instants = [core.NumBuiltinTags]bool{
	core.TagTraceAbort:    true,
	core.TagTraceCompiled: true,
	core.TagGuardFail:     true,
	core.TagBridgeEnter:   true,
	core.TagBaselineDeopt: true,
	core.TagMethodDeopt:   true,
	core.TagGCSkipped:     true,
}

// sigNode is one distinct stack signature — the frames from the root
// down to an open span — and its folded-stack weight. Open spans point
// at their node, so opening a span is one child lookup keyed by the
// opening annotation: the label and the signature string are built once
// per distinct stack, not once per open.
type sigNode struct {
	label  string
	sig    string // semicolon-joined labels, root first
	cycles float64
	instrs uint64
	kids   map[sigKey]*sigNode
}

// sigKey identifies a child frame by the annotation that opens it.
// Two keys may resolve to one label (a trace entered directly and
// through a bridge); WriteFolded merges such nodes by signature.
type sigKey struct {
	tag core.Tag
	arg uint64
}

// span is one open region of the phase/tier stack.
type span struct {
	phase    core.Phase
	openTag  core.Tag
	enterArg uint64
	node     *sigNode // stack signature: label and folded-stack weight
	start    State    // totals at open
	self     State    // deltas attributed while top of stack
	chrome   bool     // a Chrome B event was emitted
	// linked records that execution transferred through a bridge inside
	// this jit span. A bridge's closing jump links into a loop trace —
	// not necessarily the entered one — with no annotation, so once a
	// span is linked the jit_leave argument is unconstrained; an
	// unlinked span must leave with the trace it entered.
	linked bool
}

// Window is one interval of the time-series: per-phase deltas over at
// least Config.Window retired instructions.
type Window struct {
	Start, End uint64 // machine instruction counts [Start, End)
	Phases     [core.NumPhases]State
}

// maxErrs bounds retained error detail; further errors only count.
const maxErrs = 16

// Stream is the pure annotation-stream consumer: span stack,
// well-formedness checker, and aggregation. It never touches a
// cpu.Machine — events carry their own state — so arbitrary (including
// malformed) streams can be fed to it. A malformed stream records
// errors (Err) and recovers; it never panics.
type Stream struct {
	cfg Config

	stack []span
	nodes []*sigNode // every signature, first seen first (nodes[0] is the root)
	last  State

	win     Window
	winEnd  uint64 // instruction count that closes win; never reached with the series off
	windows []Window

	cw *chromeWriter

	errs     []error
	errCount int
	finished bool

	// Spans counts opened spans. Events counts annotations seen and
	// Stamped those consumed with a stamped state; the difference is the
	// dispatch ticks whose deltas rode on a later event.
	Spans   uint64
	Events  uint64
	Stamped uint64
}

// NewStream returns a stream consumer starting at machine state zero in
// the implicit interp root span.
func NewStream(cfg Config) *Stream {
	s := &Stream{
		cfg:    cfg,
		nodes:  []*sigNode{{label: "interp", sig: "interp"}},
		winEnd: math.MaxUint64,
	}
	s.openWindow(0)
	root := span{phase: core.PhaseInterp, node: s.nodes[0]}
	if cfg.Chrome != nil {
		s.cw = newChromeWriter(cfg.Chrome, cfg.ClockHz, cfg.MaxChromeEvents)
		root.chrome = s.cw.begin(root.node.label, core.PhaseInterp.String(), 0)
	}
	s.stack = append(s.stack, root)
	return s
}

// start rebases the stream on a machine that already has history: the
// root span and window accounting begin at st instead of zero.
func (s *Stream) start(st State) {
	s.last = st
	s.stack[0].start = st
	s.openWindow(st.Instrs)
}

// openWindow starts the next series window at instruction count at.
func (s *Stream) openWindow(at uint64) {
	s.win = Window{Start: at}
	if s.cfg.Window > 0 {
		s.winEnd = at + s.cfg.Window
	}
}

// child returns the signature node one frame below n, building the
// label and signature on first sight of this stack.
func (s *Stream) child(n *sigNode, tag core.Tag, arg uint64) *sigNode {
	k := sigKey{tag, arg}
	c := n.kids[k]
	if c == nil {
		label := s.buildLabel(tag, arg)
		c = &sigNode{label: label, sig: n.sig + ";" + label}
		if n.kids == nil {
			n.kids = map[sigKey]*sigNode{}
		}
		n.kids[k] = c
		s.nodes = append(s.nodes, c)
	}
	return c
}

func (s *Stream) errorf(format string, args ...any) {
	s.errCount++
	if len(s.errs) < maxErrs {
		s.errs = append(s.errs, fmt.Errorf(format, args...))
	}
}

// Err summarizes recorded stream errors (nil for a well-formed stream).
func (s *Stream) Err() error {
	if s.errCount == 0 {
		return nil
	}
	if s.errCount == 1 {
		return s.errs[0]
	}
	return fmt.Errorf("%d stream errors, first: %w", s.errCount, s.errs[0])
}

// Errors returns the retained error details (capped at maxErrs).
func (s *Stream) Errors() []error { return s.errs }

// CurrentPhase returns the phase of the top of the span stack.
func (s *Stream) CurrentPhase() core.Phase { return s.stack[len(s.stack)-1].phase }

// Depth returns the span-stack depth including the implicit root.
func (s *Stream) Depth() int { return len(s.stack) }

// Windows returns the closed time-series windows.
func (s *Stream) Windows() []Window { return s.windows }

// Consume feeds one event through attribution and the span checker.
func (s *Stream) Consume(ev Event) { s.consume(&ev) }

// consume is Consume by reference: the profiler's events are stamped on
// its stack and read in place.
func (s *Stream) consume(ev *Event) {
	if s.finished {
		return
	}
	s.Events++
	s.Stamped++
	s.attribute(&ev.State)
	s.apply(ev)
	s.last = ev.State
}

// tick accounts for a dispatch annotation retired at instruction count
// instrs without a stamped state. A dispatch tick changes no span and
// attribution is additive, so its delta can ride on the next stamped
// event; what cannot wait is the event count, the phase check (the span
// stack is current: every other event is consumed as it retires) and
// the series, whose windows close on the first event at or past their
// end. tick reports whether this is that event — the caller must then
// stamp it and Consume it, which does the counting and checking.
func (s *Stream) tick(instrs uint64) (stamp bool) {
	if instrs >= s.winEnd {
		return true
	}
	s.Events++
	s.check(core.Rule(core.TagDispatch))
	return false
}

// attribute charges the delta since the previous event to the current
// top of stack (folded signature, self counters, series window). The
// delta is never materialized: both accumulators read it off the two
// states in place.
func (s *Stream) attribute(at *State) {
	last := &s.last
	if at.Instrs < last.Instrs {
		s.errorf("event state regressed: instrs %d -> %d", last.Instrs, at.Instrs)
		return
	}
	cycles := at.Cycles - last.Cycles
	if cycles < 0 {
		s.errorf("event state regressed: cycles went negative by %g", -cycles)
		cycles = 0
	}
	if at.Instrs == last.Instrs && cycles == 0 {
		return
	}
	top := &s.stack[len(s.stack)-1]
	top.self.accrue(at, last, cycles)
	top.node.cycles += cycles
	top.node.instrs += at.Instrs - last.Instrs
	if s.cfg.Window > 0 {
		s.win.Phases[top.phase].accrue(at, last, cycles)
		if at.Instrs >= s.winEnd {
			s.win.End = at.Instrs
			s.windows = append(s.windows, s.win)
			s.openWindow(at.Instrs)
		}
	}
}

// apply interprets the event's tag against the span grammar
// (core.Rule), then does what only the profiler does with it: mark an
// instant event and relink a bridge transfer.
func (s *Stream) apply(ev *Event) {
	r := core.Rule(ev.Tag)
	switch {
	case r.Opener():
		s.open(ev, r)
	case r.Closer():
		s.close(ev, r)
	default:
		s.check(r)
	}
	if int(ev.Tag) < len(instants) && instants[ev.Tag] && s.cw != nil {
		s.cw.instant(r.Name, ev.State.Cycles, ev.Arg)
	}
	if ev.Tag == core.TagBridgeEnter {
		s.relink(ev)
	}
}

func (s *Stream) top() *span { return &s.stack[len(s.stack)-1] }

// check phase-checks an event against where its rule allows it.
func (s *Stream) check(r *core.TagRule) {
	if p := s.CurrentPhase(); !r.In.Has(p) {
		s.errorf("%s event in phase %s", r.Name, p)
	}
}

// open pushes a span, checking its parent phase against the grammar.
func (s *Stream) open(ev *Event, r *core.TagRule) {
	if p := s.CurrentPhase(); !r.In.Has(p) {
		s.errorf("%s span opened in phase %s", r.Opens, p)
	}
	sp := span{
		phase:    r.Opens,
		openTag:  ev.Tag,
		enterArg: ev.Arg,
		node:     s.child(s.top().node, ev.Tag, ev.Arg),
		start:    ev.State,
	}
	if s.cw != nil {
		sp.chrome = s.cw.begin(sp.node.label, r.Opens.String(), ev.State.Cycles)
	}
	s.stack = append(s.stack, sp)
	s.Spans++
}

// close pops the span opened by the rule's opener. A closer whose
// argument must match its opener's is checked against the top span
// (a jit span that a bridge relinked may leave with any trace). A
// mismatched close is a stream error; recovery pops down to the nearest
// matching span if one is open (closing the spans above it), and
// ignores the event otherwise.
func (s *Stream) close(ev *Event, r *core.TagRule) {
	if top := s.top(); r.MatchArg && top.openTag == r.Closes && !top.linked && ev.Arg != top.enterArg {
		s.errorf("%s arg %d from an unlinked span does not match enter arg %d", r.Name, ev.Arg, top.enterArg)
	}
	idx := -1
	for i := len(s.stack) - 1; i >= 1; i-- {
		if s.stack[i].openTag == r.Closes {
			idx = i
			break
		}
	}
	top := len(s.stack) - 1
	if idx == -1 {
		s.errorf("%s with no matching open span (top is %s)", r.Name, s.stack[top].node.label)
		return
	}
	if idx != top {
		s.errorf("%s closes %s across %d still-open span(s), innermost %s",
			r.Name, s.stack[idx].node.label, top-idx, s.stack[top].node.label)
	}
	for len(s.stack)-1 >= idx {
		s.pop(&ev.State)
	}
}

// pop closes the top span at the given state.
func (s *Stream) pop(at *State) {
	top := s.top()
	if s.cw != nil && top.chrome {
		s.cw.end(at.Cycles, at.Sub(top.start), top.self)
	}
	if s.cfg.SpanSink != nil {
		s.cfg.SpanSink(CompletedSpan{
			Label: top.node.label,
			Phase: top.phase,
			Depth: len(s.stack) - 1,
			Start: top.start,
			End:   *at,
			Self:  top.self,
		})
	}
	s.stack = s.stack[:len(s.stack)-1]
}

// relink relabels the open jit span's attribution to the bridge
// (flamegraph frames are keyed phase→tier→trace-id, and time after a
// bridge transfer belongs to the bridge until the next transfer) and
// frees the span's jit_leave argument.
func (s *Stream) relink(ev *Event) {
	top := s.top()
	if top.openTag != core.TagJITEnter {
		return
	}
	top.linked = true
	top.node = s.child(s.stack[len(s.stack)-2].node, core.TagBridgeEnter, ev.Arg)
}

// Finish attributes the tail delta, verifies balance, closes any
// still-open spans (an error unless only the root remains), and
// finalizes the Chrome stream and the pending series window.
func (s *Stream) Finish(final State) {
	if s.finished {
		return
	}
	s.attribute(&final)
	s.last = final
	if n := len(s.stack) - 1; n > 0 {
		labels := make([]string, 0, n)
		for _, sp := range s.stack[1:] {
			labels = append(labels, sp.node.label)
		}
		s.errorf("%d span(s) still open at end of stream: %v", n, labels)
	}
	for len(s.stack) > 1 {
		s.pop(&final)
	}
	if s.cfg.Window > 0 && (s.win.Phases != [core.NumPhases]State{}) {
		s.win.End = final.Instrs
		s.windows = append(s.windows, s.win)
	}
	if s.cw != nil {
		root := &s.stack[0]
		if root.chrome {
			s.cw.end(final.Cycles, final.Sub(root.start), root.self)
		}
		s.cw.close()
		if err := s.cw.Err(); err != nil {
			s.errorf("chrome trace write: %v", err)
		}
	}
	if s.cfg.SpanSink != nil {
		root := &s.stack[0]
		s.cfg.SpanSink(CompletedSpan{
			Label: root.node.label,
			Phase: root.phase,
			Depth: 0,
			Start: root.start,
			End:   final,
			Self:  root.self,
		})
	}
	s.finished = true
	// No label is resolved, span closed or event written after this, and
	// each of the three reaches what the run was built of (label closures
	// hold the guest VM and its JIT log); the exports read the rest.
	s.cfg.Labels, s.cfg.SpanSink, s.cfg.Chrome, s.cw = Labels{}, nil, nil, nil
}

func (s *Stream) buildLabel(tag core.Tag, arg uint64) string {
	ls := s.cfg.Labels
	named := func(prefix string, f func(uint64) string, id uint64, fallback string) string {
		if f != nil {
			if n := f(id); n != "" {
				return sanitizeFrame(prefix + n)
			}
		}
		return fallback
	}
	switch tag {
	case core.TagTraceStart:
		if arg&core.TraceStartBridge != 0 {
			return fmt.Sprintf("tracing:bridge:g%d", arg&^core.TraceStartBridge)
		}
		return fmt.Sprintf("tracing:loop:c%d:p%d", arg>>16, arg&0xffff)
	case core.TagJITEnter:
		return named("jit:", ls.Trace, arg, fmt.Sprintf("jit:t%d", arg))
	case core.TagBridgeEnter:
		return named("jit:", ls.Trace, arg, fmt.Sprintf("jit:b%d", arg))
	case core.TagAOTCallEnter:
		return named("call:", ls.AOTFunc, arg, fmt.Sprintf("call:fn%d", arg))
	case core.TagGCMinorStart:
		return "gc:minor:" + gcReasonName(arg)
	case core.TagGCMajorStart:
		return "gc:major:" + gcReasonName(arg)
	case core.TagBlackholeEnter:
		return fmt.Sprintf("blackhole:g%d", arg)
	case core.TagBaselineCompileStart:
		return fmt.Sprintf("basecomp:c%d:p%d", arg>>16, arg&0xffff)
	case core.TagBaselineEnter:
		return named("baseline:", ls.Baseline, arg, fmt.Sprintf("baseline:bc%d", arg))
	case core.TagMethodCompileStart:
		return fmt.Sprintf("methcomp:c%d", arg)
	case core.TagMethodEnter:
		return named("method:", ls.Method, arg, fmt.Sprintf("method:mc%d", arg))
	}
	return fmt.Sprintf("tag%d:%d", tag, arg)
}
