package harness

import (
	"io"
	"reflect"
	"testing"

	"metajit/internal/bench"
	"metajit/internal/core"
	"metajit/internal/cpu"
	"metajit/internal/heap"
	"metajit/internal/mtjit"
	"metajit/internal/reqtrace"
	"metajit/internal/trace"
)

// keyExcluded lists the Options fields deliberately NOT part of the
// memo CellKey, each with the reason it is sound to share a cell across
// values of that field. Everything else MUST change the key: PR 4
// shipped a BaselineThreshold sweep whose cells all memoized to the
// same result because the field was missing here — this audit is the
// regression test for that class of bug.
var keyExcluded = map[string]string{
	"Live":     "a live tracker observes counters without perturbing the run",
	"ReqTrace": "request-trace span capture observes counters without perturbing the run",
	"JITLog":   "a text sink for the JIT log dump cannot reach the Result: it is an io.Writer, not a *jitlog.Log",
}

// perturb returns an Options differing from the zero value only in the
// named field, set to a non-default value.
func perturb(t *testing.T, field string) Options {
	t.Helper()
	var o Options
	v := reflect.ValueOf(&o).Elem().FieldByName(field)
	switch v.Interface().(type) {
	case bool:
		v.SetBool(true)
	case int:
		v.SetInt(7)
	case uint64:
		v.SetUint(7)
	case string:
		v.SetString("x")
	case *heap.Config:
		v.Set(reflect.ValueOf(&heap.Config{NurserySize: 1 << 10, MajorThreshold: 8 << 10, MajorGrowth: 2}))
	case *mtjit.OptConfig:
		cfg := mtjit.AllOpts()
		cfg.CSE = false
		v.Set(reflect.ValueOf(&cfg))
	case *cpu.Params:
		p := cpu.DefaultParams()
		p.ClockHz *= 2
		v.Set(reflect.ValueOf(&p))
	case *LiveTracker:
		v.Set(reflect.ValueOf(NewLiveTracker(1)))
	case *reqtrace.Span:
		rec := reqtrace.NewRecorder(reqtrace.Config{Process: "audit"})
		v.Set(reflect.ValueOf(rec.StartTrace(reqtrace.Context{}, reqtrace.KindSimulate, "audit")))
	case nil: // an interface field: its zero value carries no dynamic type
		if v.Type() != reflect.TypeFor[io.Writer]() {
			t.Fatalf("Options.%s has interface type %s the audit cannot perturb", field, v.Type())
		}
		v.Set(reflect.ValueOf(io.Discard))
	default:
		t.Fatalf("Options.%s has type %s the audit cannot perturb — teach perturb() about it "+
			"and decide whether it belongs in CellKey", field, v.Type())
	}
	return o
}

// TestCellKeyCoversOptions walks every Options field by reflection:
// each one must either change the memo key when perturbed or be listed
// in keyExcluded with a soundness argument. Adding a field to Options
// without deciding its memoization story fails here, not in a silently
// wrong sweep.
func TestCellKeyCoversOptions(t *testing.T) {
	p := bench.ByName("telco")
	base := Key(p, VMPyPyJIT, Options{})
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i).Name
		got := Key(p, VMPyPyJIT, perturb(t, field))
		changed := got != base
		if why, excluded := keyExcluded[field]; excluded {
			if changed {
				t.Errorf("Options.%s is listed as key-excluded (%s) but changes the key", field, why)
			}
			continue
		}
		if !changed {
			t.Errorf("Options.%s does not change the memo key: two sweeps differing only "+
				"in this field would share (wrong) memoized results", field)
		}
	}
}

// TestCellKeyTraceIdentity: two distinct recordings replayed under the
// same options must never share a cell, even though bench.FromTrace
// gives them names distinguished only by a hash prefix — the key must
// carry the full content hash, not the display name or a file path.
func TestCellKeyTraceIdentity(t *testing.T) {
	mk := func(seed uint64) *bench.Program {
		rec := trace.NewRecorder(trace.Header{
			Guest: trace.GuestPy, Name: "same-name", VM: "pypy", Seed: seed,
			Source: "def main():\n    return 1\n",
		})
		rec.OnAnnotation(core.Annotation{Tag: core.TagDispatch, Arg: seed}, seed, seed)
		p := bench.FromTrace(rec.Finish(trace.Summary{}))
		return &p
	}
	a, b := mk(1), mk(2)
	ka, kb := Key(a, VMPyPyJIT, Options{}), Key(b, VMPyPyJIT, Options{})
	if ka == kb {
		t.Fatalf("two distinct recordings share a memo key: %s", ka)
	}
	// Same recording loaded twice is the same cell (content identity,
	// not object identity).
	a2 := mk(1)
	if Key(a2, VMPyPyJIT, Options{}) != ka {
		t.Fatal("identical recordings map to different memo keys")
	}
	// The replay mode is part of the key: an alloc-replay cell must not
	// collide with a guest re-drive cell of the same trace.
	if Key(a, VMPyPyJIT, Options{ReplayAlloc: true}) == ka {
		t.Fatal("alloc-replay and guest-redrive share a memo key")
	}
}
