package profile

import (
	"bytes"
	"encoding/json"
	"testing"

	"metajit/internal/core"
	"metajit/internal/cpu"
	"metajit/internal/pintool"
)

// decodeEvents turns fuzz bytes into an annotation stream, 3 bytes per
// event: tag (mod 64 — covering every built-in, dynamic, and unknown
// tag), arg, and a state-advance byte. The advance is usually applied
// forward; advance values ending in 0b111 rewind state instead, so the
// fuzzer reaches the regression/reordering recovery paths that a
// machine-stamped stream can never produce.
func decodeEvents(data []byte) []Event {
	var evs []Event
	var instrs uint64
	for i := 0; i+2 < len(data); i += 3 {
		tag := core.Tag(data[i] & 0x3f)
		arg := uint64(data[i+1])
		adv := uint64(data[i+2])
		if adv&0x7 == 0x7 && instrs >= adv {
			instrs -= adv // deliberate regression
		} else {
			instrs += adv
		}
		evs = append(evs, Event{Tag: tag, Arg: arg, State: State{
			Instrs: instrs,
			Units:  1250 * instrs,
		}})
	}
	return evs
}

// seedStream assembles a byte stream from (tag, arg, advance) triples.
func seedStream(triples ...[3]byte) []byte {
	var b []byte
	for _, t := range triples {
		b = append(b, t[0], t[1], t[2])
	}
	return b
}

// FuzzAnnotStream feeds arbitrary — truncated, reordered, unknown-tag,
// state-regressing — annotation streams through the full consumer
// (span checker, flamegraph, series, Chrome writer) and asserts
// the structural guarantees that must hold for ANY input: no panics,
// the span stack never underflows, the stream always finishes back at
// the root, the Chrome trace is valid JSON with balanced B/E events,
// and a malformed stream is flagged through Err() rather than silently
// accepted. A pintool.PhaseTracker reads the same events: both read one
// grammar (core.Rule), so on every prefix the stream finds well formed
// the two agree on the current phase.
func FuzzAnnotStream(f *testing.F) {
	// A well-formed tiered run: tier-1 compile + residency, tracing,
	// trace execution with a GC inside, a bridge transfer, and a deopt.
	f.Add(seedStream(
		[3]byte{byte(core.TagDispatch), 1, 10},
		[3]byte{byte(core.TagBaselineCompileStart), 7, 10},
		[3]byte{byte(core.TagBaselineCompileEnd), 1, 20},
		[3]byte{byte(core.TagBaselineEnter), 1, 5},
		[3]byte{byte(core.TagBaselineDeopt), 1, 30},
		[3]byte{byte(core.TagBaselineLeave), 1, 5},
		[3]byte{byte(core.TagTraceStart), 9, 10},
		[3]byte{byte(core.TagTraceEnd), 1, 50},
		[3]byte{byte(core.TagTraceCompiled), 1, 2},
		[3]byte{byte(core.TagJITEnter), 1, 10},
		[3]byte{byte(core.TagGCMinorStart), 1, 20},
		[3]byte{byte(core.TagGCMinorEnd), 64, 30},
		[3]byte{byte(core.TagGuardFail), 3, 15},
		[3]byte{byte(core.TagBridgeEnter), 2, 1},
		[3]byte{byte(core.TagJITLeave), 5, 40},
	))
	// Truncated: spans left open at end of stream.
	f.Add(seedStream(
		[3]byte{byte(core.TagJITEnter), 1, 10},
		[3]byte{byte(core.TagAOTCallEnter), 4, 10},
	))
	// Reordered: leave before enter, mismatched pair kinds.
	f.Add(seedStream(
		[3]byte{byte(core.TagJITLeave), 1, 10},
		[3]byte{byte(core.TagTraceStart), 2, 10},
		[3]byte{byte(core.TagGCMajorEnd), 0, 10},
		[3]byte{byte(core.TagTraceEnd), 1, 10},
	))
	// Unknown/dynamic tags interleaved with a state regression.
	f.Add(seedStream(
		[3]byte{0x3f, 200, 50},
		[3]byte{byte(core.TagGCSkipped), 1, 3},
		[3]byte{byte(core.TagDispatch), 1, 0x0f}, // 0x0f&7==7: rewind
		[3]byte{0x30, 0, 50},
	))

	f.Fuzz(func(t *testing.T, data []byte) {
		evs := decodeEvents(data)
		var chrome bytes.Buffer
		s := NewStream(Config{
			Window:          64,
			Chrome:          &chrome,
			MaxChromeEvents: 128,
		})
		tracker := pintool.NewPhaseTracker(cpu.NewDefault())
		malformed := false
		var last State
		for i, e := range evs {
			if e.State.Instrs < last.Instrs {
				malformed = true
			}
			last = e.State
			s.Consume(e)
			if s.Depth() < 1 {
				t.Fatal("span stack underflowed below the root")
			}
			tracker.OnAnnotation(core.Annotation{Tag: e.Tag, Arg: e.Arg}, 0, 0)
			if s.Err() == nil && s.CurrentPhase() != tracker.Current() {
				t.Fatalf("after event %d (%s) the stream is in %s, the phase tracker in %s",
					i, core.TagName(e.Tag), s.CurrentPhase(), tracker.Current())
			}
		}
		final := last
		if final.Instrs < s.last.Instrs {
			final = s.last
		}
		if s.Depth() > 1 {
			malformed = true // spans left open: Finish must flag it
		}
		s.Finish(final)
		if s.Depth() != 1 {
			t.Fatalf("Finish left depth %d, want 1", s.Depth())
		}
		if malformed && s.Err() == nil {
			t.Fatal("malformed stream accepted without error")
		}
		if !json.Valid(chrome.Bytes()) {
			t.Fatalf("chrome trace is not valid JSON:\n%s", chrome.String())
		}
		var doc struct {
			TraceEvents []struct {
				Ph string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		depth := 0
		for _, e := range doc.TraceEvents {
			switch e.Ph {
			case "B":
				depth++
			case "E":
				depth--
			}
			if depth < 0 {
				t.Fatal("chrome E event without matching B")
			}
		}
		if depth != 0 {
			t.Fatalf("chrome trace left %d unbalanced B events", depth)
		}
		// Exports must render whatever survived without crashing.
		var sink bytes.Buffer
		if err := s.WriteFolded(&sink); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteSeries(&sink); err != nil {
			t.Fatal(err)
		}
	})
}
