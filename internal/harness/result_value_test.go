package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"metajit/internal/bench"
	"metajit/internal/trace"
)

// resultGraphs lists the Result fields allowed to hold a reference other
// than a slice or a string, each with the reason. Everything else must
// be a value: the Runner memoizes Results, and what a Result can reach
// the memo pins — PR 13 (Profile → machine → guest VM), PR 14 (LiveRun →
// machine + jitlog) and PR 21 (Log, AOT, Events) each removed one such
// path. The next *Something added to Result fails here, not in a heap
// profile.
var resultGraphs = map[string]string{
	"Profile": "set only by the harness.Run call that simulated; a Runner refuses Options that ask for it",
	"Trace":   "set only by the harness.Run call that simulated; a Runner refuses Options that ask for it",
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

// TestJITLogSinkLeavesResultAlone: the sinks and the artifact requests
// are outside the Spec, which is sound only if watching a run changes
// nothing it simulates. For each of them the cell is the plain run's, and
// so is the Result once the artifacts it asked for are cleared.
func TestJITLogSinkLeavesResultAlone(t *testing.T) {
	p := bench.ByName("richards")
	plain, err := Run(p, VMPyPyJIT, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		opt  Options
		fed  func(*Result) bool
	}{
		{"JITLog", Options{JITLog: &dump}, func(*Result) bool { return dump.Len() > 0 }},
		{"Profile", Options{Profile: true}, func(r *Result) bool { return r.Profile != nil }},
		{"ProfileWindow", Options{Profile: true, ProfileWindow: 999}, func(r *Result) bool { return r.Profile != nil }},
		{"ProfileDir", Options{ProfileDir: dir}, func(r *Result) bool { return r.Profile != nil && exists(ProfileArtifacts(dir, p.Name, VMPyPyJIT)[2]) }},
		{"Record", Options{Record: true}, func(r *Result) bool { return r.Trace != nil }},
		{"RecordDir", Options{RecordDir: dir}, func(r *Result) bool {
			return r.Trace != nil && exists(filepath.Join(dir, trace.FileName(p.Name, string(VMPyPyJIT))))
		}},
	} {
		if Key(p, VMPyPyJIT, c.opt) != Key(p, VMPyPyJIT, Options{}) {
			t.Errorf("%s changes the memo key", c.name)
		}
		// Bare Run, not the memoizing mustRun: the two share a cell.
		res, err := Run(p, VMPyPyJIT, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !c.fed(res) {
			t.Errorf("%s: the run did not hand over what was asked for", c.name)
		}
		res.Profile, res.Trace = nil, nil
		if !reflect.DeepEqual(res, plain) {
			t.Errorf("a run with %s returns a different Result:\n%+v\n%+v", c.name, res, plain)
		}
	}
	// A run without a JIT has no log to write.
	dump.Reset()
	if _, err := Run(p, VMCPython, Options{JITLog: &dump}); err != nil {
		t.Fatal(err)
	}
	if dump.Len() != 0 {
		t.Errorf("cpython wrote %d bytes of JIT log", dump.Len())
	}
}

func exists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Size() > 0
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
