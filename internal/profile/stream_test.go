package profile

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"metajit/internal/core"
)

// ev builds a synthetic event at the given instruction count, with
// cycles advancing at 1.25 a instruction (1250 units).
func ev(tag core.Tag, arg, instrs uint64) Event {
	return Event{Tag: tag, Arg: arg, State: State{Instrs: instrs, Units: 1250 * instrs}}
}

func consumeAll(s *Stream, evs []Event) {
	for _, e := range evs {
		s.Consume(e)
	}
}

func TestStreamWellFormed(t *testing.T) {
	s := NewStream(Config{})
	consumeAll(s, []Event{
		ev(core.TagDispatch, 1, 10),
		ev(core.TagTraceStart, 2<<16|7, 100),
		ev(core.TagTraceEnd, 1, 200),
		ev(core.TagTraceCompiled, 1, 201),
		ev(core.TagJITEnter, 1, 300),
		ev(core.TagGCMinorStart, core.GCReasonAlloc, 350),
		ev(core.TagGCMinorEnd, 128, 380),
		ev(core.TagJITLeave, 1, 400),
		ev(core.TagBaselineCompileStart, 3<<16|9, 420),
		ev(core.TagBaselineCompileEnd, 1, 440),
		ev(core.TagBaselineEnter, 1, 450),
		ev(core.TagBaselineDeopt, 1, 460),
		ev(core.TagBaselineLeave, 1, 470),
	})
	s.Finish(ev(core.TagNone, 0, 500).State)
	if err := s.Err(); err != nil {
		t.Fatalf("well-formed stream reported: %v", err)
	}
	if s.Depth() != 1 {
		t.Fatalf("depth %d after finish, want 1 (root)", s.Depth())
	}
	if s.Spans != 5 {
		t.Fatalf("opened %d spans, want 5", s.Spans)
	}
	// Flamegraph weights partition total cycles exactly: every frame's
	// self time is attributed to exactly one signature.
	var total uint64
	for _, u := range s.flame() {
		total += u
	}
	if want := uint64(1250 * 500); total != want {
		t.Fatalf("flame units sum to %d, want %d", total, want)
	}
}

func TestStreamErrors(t *testing.T) {
	cases := []struct {
		name string
		evs  []Event
		want string // substring of Err()
	}{
		{"unmatched end at root",
			[]Event{ev(core.TagTraceEnd, 1, 10)},
			"no matching open span"},
		{"cross-close pops intermediates",
			[]Event{
				ev(core.TagJITEnter, 1, 10),
				ev(core.TagGCMinorStart, core.GCReasonAlloc, 20),
				ev(core.TagJITLeave, 1, 30),
			},
			"still-open span"},
		{"jit inside jit",
			[]Event{
				ev(core.TagJITEnter, 1, 10),
				ev(core.TagJITEnter, 2, 20),
			},
			"span opened in phase jit"},
		{"unlinked leave id mismatch",
			[]Event{
				ev(core.TagJITEnter, 1, 10),
				ev(core.TagJITLeave, 9, 20),
			},
			"unlinked span"},
		{"aot leave id mismatch",
			[]Event{
				ev(core.TagJITEnter, 1, 10),
				ev(core.TagAOTCallEnter, 4, 20),
				ev(core.TagAOTCallLeave, 5, 30),
			},
			"does not match enter arg"},
		{"dispatch during gc",
			[]Event{
				ev(core.TagGCMajorStart, core.GCReasonExplicit, 10),
				ev(core.TagDispatch, 1, 20),
			},
			"dispatch event in phase gc"},
		{"guard_fail outside jit",
			[]Event{ev(core.TagGuardFail, 3, 10)},
			"guard_fail event in phase interp"},
		{"state regression",
			[]Event{
				ev(core.TagDispatch, 1, 50),
				ev(core.TagDispatch, 1, 40),
			},
			"regressed"},
		{"unclosed span at finish",
			[]Event{ev(core.TagTraceStart, 1, 10)},
			"still open at end of stream"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStream(Config{})
			consumeAll(s, tc.evs)
			s.Finish(State{Instrs: 100, Units: 125000})
			err := s.Err()
			if err == nil {
				t.Fatalf("malformed stream accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestBridgeLinkLegalizesLeave pins the linking rule: after a
// bridge_enter, the jit span may legally close with any trace ID (the
// bridge's closing jump links into a loop with no annotation).
func TestBridgeLinkLegalizesLeave(t *testing.T) {
	s := NewStream(Config{})
	consumeAll(s, []Event{
		ev(core.TagJITEnter, 1, 10),
		ev(core.TagGuardFail, 7, 20),
		ev(core.TagBridgeEnter, 2, 21),
		ev(core.TagJITLeave, 5, 40),
	})
	s.Finish(State{Instrs: 50, Units: 62500})
	if err := s.Err(); err != nil {
		t.Fatalf("linked jit span rejected: %v", err)
	}
	// The post-bridge self time lands on the bridge's frame, not the
	// entered loop's.
	folded := &bytes.Buffer{}
	if err := s.WriteFolded(folded); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(folded.String(), "interp;jit:b2 ") {
		t.Fatalf("folded output missing relabeled bridge frame:\n%s", folded)
	}
}

func TestWindows(t *testing.T) {
	s := NewStream(Config{Window: 100})
	consumeAll(s, []Event{
		ev(core.TagJITEnter, 1, 80),
		ev(core.TagDispatch, 1, 150), // crosses the first boundary
		ev(core.TagJITLeave, 1, 210), // crosses the second
	})
	s.Finish(State{Instrs: 230, Units: 1250 * 230})
	ws := s.Windows()
	// The dispatch at 150 crosses the first boundary and closes [0,150);
	// nothing crosses 250, so the tail flushes at Finish as one partial
	// window [150,230).
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2: %+v", len(ws), ws)
	}
	if ws[0].Start != 0 || ws[0].End != 150 || ws[1].Start != 150 || ws[1].End != 230 {
		t.Fatalf("window bounds wrong: %+v", ws)
	}
	// First window: 80 interp instrs then 70 jit instrs; second window:
	// 60 jit (150→210) then 20 interp (210→230).
	if ws[0].Phases[core.PhaseInterp].Instrs != 80 || ws[0].Phases[core.PhaseJIT].Instrs != 70 {
		t.Fatalf("window 0 phase split wrong: %+v", ws[0].Phases)
	}
	if ws[1].Phases[core.PhaseInterp].Instrs != 20 || ws[1].Phases[core.PhaseJIT].Instrs != 60 {
		t.Fatalf("window 1 phase split wrong: %+v", ws[1].Phases)
	}
	var series bytes.Buffer
	if err := s.WriteSeries(&series); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(series.String()), "\n")
	if len(lines) != 2+len(ws) {
		t.Fatalf("series has %d lines, want header+legend+%d rows:\n%s", len(lines), len(ws), series.String())
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	s := NewStream(Config{Chrome: &buf, MaxChromeEvents: 6})
	for i := uint64(0); i < 20; i++ {
		base := 100 * i
		s.Consume(ev(core.TagJITEnter, 1, base+10))
		s.Consume(ev(core.TagGuardFail, 3, base+20))
		s.Consume(ev(core.TagJITLeave, 1, base+30))
	}
	s.Finish(State{Instrs: 3000, Units: 3750000})
	if err := s.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("capped chrome trace is not valid JSON:\n%s", buf.String())
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
		OtherData struct {
			DroppedEvents int `json:"droppedEvents"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.OtherData.DroppedEvents == 0 {
		t.Fatal("cap of 6 on 60 events dropped nothing")
	}
	// Every B event must still have its E: the cap gates only new spans.
	depth := 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "B":
			depth++
		case "E":
			depth--
		}
		if depth < 0 {
			t.Fatal("E event without matching B")
		}
	}
	if depth != 0 {
		t.Fatalf("%d unclosed B events in capped trace", depth)
	}
}

func TestLabels(t *testing.T) {
	s := NewStream(Config{Labels: Labels{
		Trace: func(id uint64) string {
			if id == 1 {
				return "loop1@c2:p14"
			}
			return ""
		},
	}})
	consumeAll(s, []Event{
		ev(core.TagJITEnter, 1, 10),
		ev(core.TagJITLeave, 1, 20),
		ev(core.TagJITEnter, 9, 30),
		ev(core.TagJITLeave, 9, 40),
		ev(core.TagGCMinorStart, core.GCReasonAlloc, 50),
		ev(core.TagGCMinorEnd, 0, 60),
	})
	s.Finish(State{Instrs: 70, Units: 87500})
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	var folded bytes.Buffer
	if err := s.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"interp;jit:loop1@c2:p14 ", // resolver hit
		"interp;jit:t9 ",           // resolver miss falls back to numeric
		"interp;gc:minor:alloc ",
	} {
		if !strings.Contains(folded.String(), want) {
			t.Errorf("folded output missing %q:\n%s", want, folded.String())
		}
	}
}
