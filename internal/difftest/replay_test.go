package difftest

import (
	"bytes"
	"strings"
	"testing"

	"metajit/internal/bench"
	"metajit/internal/harness"
	"metajit/internal/trace"
)

// replayKinds is the VM column set of the record→replay equivalence
// sweep: the meta-tracing JIT, the two-tier configuration (most moving
// parts: baseline compilation, promotion, tracing), the amalgamated
// and adaptive three-tier configurations (method compilation and the
// feedback controller must replay bit-exactly too), and the Scheme
// guest on the framework. Interpreter-only kinds add nothing — every
// JIT kind already interprets during warmup.
var replayKinds = []harness.VMKind{
	harness.VMPyPyJIT, harness.VMPyPyTiered,
	harness.VMPyPyAmalg, harness.VMPyPyAdaptive,
	harness.VMPycket,
}

// TestRecordReplayEquivalence runs CheckReplay — record, wire
// round-trip, replay, compare summaries and event streams bit-exactly —
// for every benchmark under every replay kind. In -short mode a
// three-benchmark subset keeps the sweep fast while still covering all
// three kinds and both guests.
func TestRecordReplayEquivalence(t *testing.T) {
	short := map[string]bool{"telco": true, "nbody": true, "richards": true}
	for _, p := range bench.All() {
		p := p
		if testing.Short() && !short[p.Name] {
			continue
		}
		for _, kind := range replayKinds {
			kind := kind
			if kind == harness.VMPycket && p.SkSource == "" {
				continue
			}
			if testing.Short() && (kind == harness.VMPyPyAmalg || kind == harness.VMPyPyAdaptive) &&
				p.Name != "telco" {
				continue
			}
			t.Run(p.Name+"/"+string(kind), func(t *testing.T) {
				t.Parallel()
				if err := CheckReplay(&p, kind, harness.Options{}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestReplayDetectsTamper proves the invariant has teeth: a trace whose
// recorded summary or event stream was altered must fail the comparison
// every replay site makes, with the edited field named. (CheckReplay
// re-records internally, so tampering is staged through
// trace.CheckReplay directly plus a decode-level corruption.)
func TestReplayDetectsTamper(t *testing.T) {
	p := bench.ByName("telco")
	if p == nil {
		t.Fatal("telco benchmark missing")
	}
	r, err := harness.Run(p, harness.VMPyPyJIT, harness.Options{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trace.Summary.Phases) == 0 {
		t.Fatal("recorded summary has no phase counters")
	}
	if err := trace.CheckReplay(r.Trace, r.Trace); err != nil {
		t.Fatalf("a recording diverges from itself: %v", err)
	}
	for field, edit := range map[string]func(*trace.Trace){
		"heap checksum": func(tr *trace.Trace) { tr.Summary.HeapChecksum ^= 1 },
		"phase 0":       func(tr *trace.Trace) { tr.Summary.Phases[0].Instrs++ },
		"gc stats":      func(tr *trace.Trace) { tr.Summary.GC.PromotedBytes++ },
		"events":        func(tr *trace.Trace) { tr.Summary.Events++ },
		"event stream":  func(tr *trace.Trace) { tr.EventData[len(tr.EventData)/2] ^= 1 },
	} {
		tampered := trace.Trace{Header: r.Trace.Header, Summary: r.Trace.Summary, EventData: bytes.Clone(r.Trace.EventData)}
		tampered.Summary.Phases = append([]trace.PhaseSum(nil), r.Trace.Summary.Phases...)
		edit(&tampered)
		if err := trace.CheckReplay(&tampered, r.Trace); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s tamper: CheckReplay = %v, want a divergence naming it", field, err)
		}
	}

	// Decode-level: flipping a bit in the encoding must not yield a
	// trace that silently replays differently — it must not decode.
	enc := r.Trace.Encode()
	enc[len(enc)/2] ^= 1
	if _, err := trace.Decode(enc); err == nil {
		t.Error("corrupted encoding decoded successfully")
	}
}
