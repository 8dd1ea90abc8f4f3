package profile

import (
	"testing"

	"metajit/internal/core"
	"metajit/internal/cpu"
)

// TestSpanSinkDelivery drives a synthetic stream and checks the sink
// sees every closed span — inner spans at pop time, the implicit interp
// root at Finish — with correct depth, interval, and self attribution.
func TestSpanSinkDelivery(t *testing.T) {
	var got []CompletedSpan
	s := NewStream(Config{SpanSink: func(cs CompletedSpan) { got = append(got, cs) }})

	at := func(instrs, cycles uint64) State {
		return State{Instrs: instrs, Units: cycles * cpu.UnitsPerCycle}
	}
	s.Consume(Event{Tag: core.TagTraceStart, State: at(100, 150)})
	s.Consume(Event{Tag: core.TagTraceEnd, State: at(300, 450)})
	s.Consume(Event{Tag: core.TagJITEnter, Arg: 7, State: at(400, 600)})
	s.Consume(Event{Tag: core.TagGCMinorStart, Arg: core.GCReasonAlloc, State: at(500, 750)})
	s.Consume(Event{Tag: core.TagGCMinorEnd, State: at(550, 850)})
	s.Consume(Event{Tag: core.TagJITLeave, Arg: 7, State: at(900, 1200)})
	s.Finish(at(1000, 1400))
	if err := s.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}

	if len(got) != 4 {
		t.Fatalf("sink saw %d spans, want 4: %+v", len(got), got)
	}
	// Close order: tracing, gc (inside jit), jit, then the root.
	tr, gc, jit, root := got[0], got[1], got[2], got[3]
	if tr.Phase != core.PhaseTracing || tr.Depth != 1 {
		t.Errorf("tracing span = %+v", tr)
	}
	if tr.Start.Instrs != 100 || tr.End.Instrs != 300 || tr.Self.Instrs != 200 {
		t.Errorf("tracing interval wrong: %+v", tr)
	}
	if gc.Phase != core.PhaseGC || gc.Depth != 2 {
		t.Errorf("gc span = %+v", gc)
	}
	if jit.Phase != core.PhaseJIT || jit.Depth != 1 {
		t.Errorf("jit span = %+v", jit)
	}
	// JIT self excludes the nested gc pause: (500-400) + (900-550).
	if jit.Self.Instrs != 450 || jit.Start.Instrs != 400 || jit.End.Instrs != 900 {
		t.Errorf("jit attribution wrong: %+v", jit)
	}
	if root.Label != "interp" || root.Depth != 0 || root.End.Instrs != 1000 {
		t.Errorf("root span = %+v", root)
	}
	// Root self is everything not inside a child span.
	if root.Self.Instrs != 100+100+100 {
		t.Errorf("root self = %+v", root.Self)
	}
}

// TestSpanSinkMalformedStream checks the sink still sees recovery pops
// (no panics, no missing closes) when the stream is malformed.
func TestSpanSinkMalformedStream(t *testing.T) {
	var got []CompletedSpan
	s := NewStream(Config{SpanSink: func(cs CompletedSpan) { got = append(got, cs) }})
	s.Consume(Event{Tag: core.TagJITEnter, Arg: 1, State: State{Instrs: 10, Units: 10000}})
	// jit never left; Finish force-closes it, then the root.
	s.Finish(State{Instrs: 20, Units: 20000})
	if s.Err() == nil {
		t.Fatal("expected stream error for unclosed span")
	}
	if len(got) != 2 || got[0].Phase != core.PhaseJIT || got[1].Depth != 0 {
		t.Fatalf("sink saw %+v", got)
	}
}
