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
	"metajit/internal/isa"
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
// regression test for that class of bug.) The walk runs on pypy-amalg,
// the kind that simulates every tier field. ProfileWindow only means
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
		spec, obs := base.split(p, VMPyPyAmalg)
		gotSpec, gotObs := perturb(t, base, field).split(p, VMPyPyAmalg)
		if gotSpec == spec && reflect.DeepEqual(gotObs, obs) {
			t.Errorf("Options.%s reaches neither the Spec nor the Observe: split drops it", field)
		}
	}
}

// CellPair is two Options for one VM kind.
type CellPair struct {
	VM   VMKind
	A, B Options
}

// SameCells are Options that differ only in what the kind does not
// simulate, or that spell out the kind's default: each pair is one cell.
// The cluster's CellID check (cellid_test.go) walks them too.
var SameCells = func() []CellPair {
	none := mtjit.OptConfig{}
	nearDefault := cpu.DefaultParams()
	nearDefault.LoadUseStall, nearDefault.L2Size = 0.3502, 1<<20-64
	return []CellPair{
		{VMPyPyJIT, Options{}, Options{Threshold: 57}},
		{VMPyPyJIT, Options{}, Options{BridgeThreshold: 17}},
		{VMPyPyJIT, Options{}, Options{BaselineThreshold: 3, MethodThreshold: 9}},
		{VMPyPyNoJIT, Options{}, Options{Threshold: 5, Adaptive: true, Opts: &none}},
		{VMCPython, Options{}, Options{Threshold: 5}},
		{VMRacket, Options{}, Options{Threshold: 5}},
		{VMPyPyAdaptive, Options{}, Options{Adaptive: true}},
		{VMPyPyTiered, Options{}, Options{BaselineThreshold: 6}},
		// Both clamp to one below the tracing threshold.
		{VMPyPyTiered, Options{BaselineThreshold: 100}, Options{BaselineThreshold: 56}},
		{VMC, Options{}, Options{Threshold: 5, SampleInterval: 1000}},
		// A profile or a recording is watched, not simulated.
		{VMPyPyJIT, Options{}, Options{Profile: true}},
		{VMPyPyTiered, Options{}, Options{Record: true}},
		{VMCPython, Options{Profile: true, ProfileWindow: 999}, Options{ProfileDir: "x", RecordDir: "y"}},
		// Params the machine rounds to the default model.
		{VMPyPyJIT, Options{}, Options{Params: &nearDefault}},
	}
}()

// TestSpecResolvesDefaults: an override that spells out the default is
// the default's cell — equal Specs and one simulation — and so is an
// option the kind does not simulate or only watches; what a directory
// implies is resolved into the Observe, and every tier default into the
// Spec, so that changing one moves the cell.
func TestSpecResolvesDefaults(t *testing.T) {
	p := bench.ByName("telco")
	def, all, params := defaultHeap, mtjit.AllOpts(), cpu.DefaultParams()
	explicit := Options{HeapConfig: &def, Opts: &all, Params: &params}
	if Key(p, VMPyPyJIT, explicit) != Key(p, VMPyPyJIT, Options{}) {
		t.Fatal("spelling out every default changed the Spec")
	}
	if _, o := (Options{ProfileDir: "x"}).split(p, VMPyPyJIT); o.ProfileWindow != DefaultProfileWindow {
		t.Errorf("ProfileDir did not resolve to a profile with the default window: %+v", o)
	}
	if _, o := (Options{ProfileWindow: 9}).split(p, VMPyPyJIT); o.ProfileWindow != 0 {
		t.Errorf("an unprofiled run carries ProfileWindow %d", o.ProfileWindow)
	}
	if s := Key(p, VMPyPyTiered, Options{}); s.Engine.BaselineThreshold != mtjit.DefaultBaselineThreshold {
		t.Errorf("the pypy-tiered Spec carries baseline threshold %d, want mtjit's default %d",
			s.Engine.BaselineThreshold, mtjit.DefaultBaselineThreshold)
	}
	for _, c := range SameCells {
		if a, b := Key(p, c.VM, c.A), Key(p, c.VM, c.B); a != b {
			t.Errorf("one run, two cells: %s and %s", a, b)
		}
	}
	for _, c := range []CellPair{
		{VMPyPyJIT, Options{}, Options{Threshold: 40}},
		{VMPyPyJIT, Options{}, Options{Adaptive: true}},
		{VMPyPyTiered, Options{}, Options{BaselineThreshold: 3}},
		{VMPyPyJIT, Options{}, Options{SampleInterval: 1000}},
	} {
		if a := Key(p, c.VM, c.A); a == Key(p, c.VM, c.B) {
			t.Errorf("%s: Options %+v are the default's cell %s", c.VM, c.B, a)
		}
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

// TestSpecNormalizesParams: Params that the machine builds as one model
// — costs that round to one unit, cache geometry that rounds to one
// power of two — are one cell, and the Spec holds the model built.
func TestSpecNormalizesParams(t *testing.T) {
	p := bench.ByName("telco")
	a, b := cpu.DefaultParams(), cpu.DefaultParams()
	a.IssueCost[isa.Mul], a.L1Size = 0.9, 40<<10
	b.IssueCost[isa.Mul], b.L1Size = 0.9003, 64<<10
	ka, kb := Key(p, VMPyPyJIT, Options{Params: &a}), Key(p, VMPyPyJIT, Options{Params: &b})
	if ka != kb {
		t.Fatalf("Params that build one machine are two cells:\n%+v\n%+v", ka.Params, kb.Params)
	}
	if ka.Params != a.Normalized() || ka.Params == cpu.DefaultParams() {
		t.Fatalf("the Spec holds Params %+v, want %+v", ka.Params, a.Normalized())
	}
}

// TestDirectoriesAreNotIdentity: where artifacts go is a sink. Asking by
// flag or by any directory is one cell, and the Run call that asks for
// both directories writes every artifact into its own.
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

	if _, err := Run(p, VMPyPyJIT, Options{ProfileDir: a, RecordDir: a}); err != nil {
		t.Fatal(err)
	}
	want := append(ProfileArtifacts(a, p.Name, VMPyPyJIT), filepath.Join(a, trace.FileName(p.Name, string(VMPyPyJIT))))
	for _, path := range want {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("the run's directory lacks %s: %v", path, err)
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
