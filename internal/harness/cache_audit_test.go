package harness

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"metajit/internal/bench"
	"metajit/internal/core"
	"metajit/internal/cpu"
	"metajit/internal/heap"
	"metajit/internal/mtjit"
	"metajit/internal/pylang"
	"metajit/internal/reqtrace"
	"metajit/internal/trace"
)

// perturb returns base with the named field set to a non-default value.
func perturb(t *testing.T, base Options, field string) Options {
	t.Helper()
	o := base
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
	case func(*pylang.VM):
		v.Set(reflect.ValueOf(func(*pylang.VM) {}))
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
			"and put it in Spec or in Observe", field, v.Type())
	}
	return o
}

// TestSplitDropsNoOption walks every Options field by reflection: set
// alone, each one must change the Spec or the Observe that split
// returns. Which of the two says whether it is identity — there is no
// third place for a field to go, and one that reaches neither does
// nothing. (PR 4 shipped a BaselineThreshold sweep whose cells all
// memoized to one result because the key missed the field; this is the
// regression test for that class of bug.) ProfileWindow only means
// something to a profiled run, so it is perturbed on one.
func TestSplitDropsNoOption(t *testing.T) {
	p := bench.ByName("telco")
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i).Name
		var base Options
		if field == "ProfileWindow" {
			base.Profile = true
		}
		spec, obs := base.split(p, VMPyPyJIT)
		gotSpec, gotObs := perturb(t, base, field).split(p, VMPyPyJIT)
		if gotSpec == spec && reflect.DeepEqual(gotObs, obs) {
			t.Errorf("Options.%s reaches neither the Spec nor the Observe: split drops it", field)
		}
	}
}

// TestSpecResolvesDefaults: an override that spells out the default is
// the default's cell — equal Specs and one simulation — and what a
// directory implies is already in the Spec.
func TestSpecResolvesDefaults(t *testing.T) {
	p := bench.ByName("telco")
	def, all, params := defaultHeap, mtjit.AllOpts(), cpu.DefaultParams()
	explicit := Options{HeapConfig: &def, Opts: &all, Params: &params}
	if Key(p, VMPyPyJIT, explicit) != Key(p, VMPyPyJIT, Options{}) {
		t.Fatal("spelling out every default changed the Spec")
	}
	if s := Key(p, VMPyPyJIT, Options{ProfileDir: "x"}); !s.Profile || s.ProfileWindow != DefaultProfileWindow {
		t.Errorf("ProfileDir did not resolve to a profiled Spec with the default window: %+v", s)
	}
	if s := Key(p, VMPyPyJIT, Options{ProfileWindow: 9}); s.ProfileWindow != 0 {
		t.Errorf("an unprofiled Spec carries ProfileWindow %d", s.ProfileWindow)
	}

	r := NewRunner(2)
	sims := 0
	r.SetSimulate(func(p *bench.Program, kind VMKind, opt Options) (*Result, error) {
		sims++
		return &Result{Bench: p.Name, VM: kind}, nil
	})
	for _, opt := range []Options{{}, explicit} {
		if _, err := r.Get(p, VMPyPyJIT, opt); err != nil {
			t.Fatal(err)
		}
	}
	if sims != 1 {
		t.Errorf("default and spelled-out default simulated %d times, want 1", sims)
	}
}

// TestDirectoriesAreNotIdentity: where artifacts go is a sink. Asking by
// flag or by any directory is one cell, so a second Get is a memo hit —
// and a memo hit feeds no sink: only the directory of the call that
// simulated has files.
func TestDirectoriesAreNotIdentity(t *testing.T) {
	p := bench.ByName("telco")
	a, b := filepath.Join(t.TempDir(), "a"), filepath.Join(t.TempDir(), "b")
	for _, same := range [][]Options{
		{{Profile: true}, {ProfileDir: a}, {ProfileDir: b}},
		{{Record: true}, {RecordDir: a}, {RecordDir: b}},
	} {
		for _, opt := range same[1:] {
			if Key(p, VMPyPyJIT, opt) != Key(p, VMPyPyJIT, same[0]) {
				t.Errorf("%+v and %+v are different cells", opt, same[0])
			}
		}
	}

	r := NewRunner(1)
	first, err := r.Get(p, VMPyPyJIT, Options{ProfileDir: a, RecordDir: a})
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Get(p, VMPyPyJIT, Options{ProfileDir: b, RecordDir: b})
	if err != nil {
		t.Fatal(err)
	}
	if second != first || r.Simulations() != 1 {
		t.Fatalf("two directories simulated %d times, want one shared cell", r.Simulations())
	}
	want := append(ProfileArtifacts(a, p.Name, VMPyPyJIT), filepath.Join(a, trace.FileName(p.Name, string(VMPyPyJIT))))
	for _, path := range want {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("the simulating call's directory lacks %s: %v", path, err)
		}
	}
	if _, err := os.Stat(b); !os.IsNotExist(err) {
		t.Errorf("a memo hit wrote into its directory %s (stat: %v)", b, err)
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
