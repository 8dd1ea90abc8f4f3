package harness

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"metajit/internal/bench"
)

// resultGraphs lists the Result fields allowed to hold a reference other
// than a slice or a string, each with the reason. Everything else must
// be a value: the Runner memoizes Results, and what a Result can reach
// the memo pins — PR 13 (Profile → machine → guest VM), PR 14 (LiveRun →
// machine + jitlog) and PR 21 (Log, AOT, Events) each removed one such
// path. The next *Something added to Result fails here, not in a heap
// profile.
var resultGraphs = map[string]string{
	"Profile": "an artifact the caller asked for by name (Options.Profile/ProfileDir); nil otherwise",
	"Trace":   "an artifact the caller asked for by name (Options.Record/RecordDir); nil otherwise",
}

func TestResultHoldsNoGraph(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.Map, reflect.Func, reflect.Interface, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("%s is a %s (%s): a memoized Result would pin whatever it reaches — "+
				"reduce it to values when the run ends, or argue for it in resultGraphs", path, typ.Kind(), typ)
		case reflect.Slice, reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		}
	}
	typ := reflect.TypeOf(Result{})
	seen := 0
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if _, ok := resultGraphs[f.Name]; ok {
			seen++
			continue
		}
		walk("Result."+f.Name, f.Type)
	}
	if seen != len(resultGraphs) {
		t.Errorf("resultGraphs names %d fields, Result has %d of them: drop the stale entry", len(resultGraphs), seen)
	}
}

// TestJITLogSinkLeavesResultAlone: Options.JITLog is a sink, outside the
// Spec, which is sound only if handing a run a sink changes nothing it
// returns.
func TestJITLogSinkLeavesResultAlone(t *testing.T) {
	p := bench.ByName("richards")
	var dump bytes.Buffer
	with, without := Options{JITLog: &dump}, Options{}
	if Key(p, VMPyPyJIT, with) != Key(p, VMPyPyJIT, without) {
		t.Fatal("JITLog changes the memo key")
	}
	// Bare Run, not the memoizing mustRun: the two share a cell.
	a, errA := Run(p, VMPyPyJIT, with)
	b, errB := Run(p, VMPyPyJIT, without)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("a run with a JIT log sink returns a different Result:\n%+v\n%+v", a, b)
	}
	if dump.Len() == 0 {
		t.Error("the sink received no dump")
	}
	// A run without a JIT has no log to write.
	dump.Reset()
	if _, err := Run(p, VMCPython, with); err != nil {
		t.Fatal(err)
	}
	if dump.Len() != 0 {
		t.Errorf("cpython wrote %d bytes of JIT log", dump.Len())
	}
}

// TestMemoDoesNotKeepTheRequestsSinks: the memo keeps a cell for its
// result. The Options a cell ran under carry the request's observers — a
// worker's cold /run passes its ReqTrace span, whose tree holds up to
// 4096 VM spans — and a memo that kept them would pin one tree per cell
// for the life of the process, whatever the flight ring's capacity.
func TestMemoDoesNotKeepTheRequestsSinks(t *testing.T) {
	r := NewRunner(1)
	r.SetSimulate(func(*bench.Program, VMKind, Options) (*Result, error) { return &Result{}, nil })
	sink := new(bytes.Buffer)
	freed := make(chan struct{})
	runtime.SetFinalizer(sink, func(*bytes.Buffer) { close(freed) })
	if _, err := r.Get(bench.ByName("telco"), VMPyPyJIT, Options{JITLog: sink}); err != nil {
		t.Fatal(err)
	}
	sink = nil
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(r)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Error("the Runner still reaches a finished cell's Options.JITLog")
}
