package harness

import (
	"errors"
	"os"
	"strings"
	"testing"

	"metajit/internal/bench"
	"metajit/internal/pylang"
)

// TestGuestErrorReturns: a guest error in main comes back from Run as an
// error that wraps the *pylang.GuestError, not as a panic, and the live
// run it opened has ended. The Guest seam's VM still has the output the
// program printed before it failed.
func TestGuestErrorReturns(t *testing.T) {
	p := &bench.Program{Name: "bad", Source: `
def main():
    xs = [1, 2]
    print(7)
    return xs[5]
`}
	lt := NewLiveTracker(1)
	var vm *pylang.VM
	res, err := Run(p, VMPyPyJIT, Options{Live: lt, Guest: func(v *pylang.VM) { vm = v }})
	var g *pylang.GuestError
	if !errors.As(err, &g) {
		t.Fatalf("Run = %v, %v; want an error wrapping *pylang.GuestError", res, err)
	}
	if !strings.Contains(g.Msg, "index out of range") {
		t.Errorf("guest message %q", g.Msg)
	}
	if got := vm.Output.String(); got != "7\n" {
		t.Errorf("output before the error = %q, want %q", got, "7\n")
	}
	st := lt.Status()
	if lt.Active() != 0 || len(st) != 1 || st[0].Snap == nil || !st[0].Snap.Done {
		t.Errorf("the live run did not end: active %d, status %+v", lt.Active(), st)
	}
}

// TestChecksumRule: main's int is the Checksum as it is; any other value
// is its kind-tagged structural checksum, so values that print alike or
// share bits still differ, and a heap value hashes the same with and
// without the JIT.
func TestChecksumRule(t *testing.T) {
	sums := map[int64]string{}
	for _, ret := range []string{"1", "True", "1.0", "None", "[1, 2]"} {
		p := &bench.Program{Name: "ret", Source: "def main():\n    return " + ret + "\n"}
		r, err := Run(p, VMPyPyNoJIT, Options{})
		if err != nil {
			t.Fatalf("return %s: %v", ret, err)
		}
		if prev, ok := sums[r.Checksum]; ok {
			t.Errorf("return %s and return %s share Checksum %d", prev, ret, r.Checksum)
		}
		sums[r.Checksum] = ret
	}
	if _, ok := sums[1]; !ok || sums[1] != "1" {
		t.Errorf("return 1 did not give Checksum 1: %v", sums)
	}

	p := &bench.Program{Name: "list", Source: `
def main():
    xs = []
    i = 0
    while i < 40:
        xs.append(i % 3)
        i = i + 1
    return [xs[0] + 1, xs[1] + 1]
`}
	plain, err := Run(p, VMPyPyNoJIT, Options{})
	if err != nil {
		t.Fatal(err)
	}
	jit, err := Run(p, VMPyPyJIT, Options{Threshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	if jit.EngStats.LoopsCompiled == 0 {
		t.Error("the loop was not compiled; the JIT side checks nothing")
	}
	if plain.Checksum != jit.Checksum {
		t.Errorf("[1, 2]: Checksum %d on pypy-nojit, %d on pypy", plain.Checksum, jit.Checksum)
	}
}

// TestLanguageFollowsProgram: a program with no Python source runs its
// Scheme source on a Python guest kind too.
func TestLanguageFollowsProgram(t *testing.T) {
	p := &bench.Program{Name: "sk", SkSource: "(define (main) (display 6) (* 6 7))"}
	for _, kind := range []VMKind{VMPyPyNoJIT, VMPycket} {
		r, err := Run(p, kind, Options{})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if r.Checksum != 42 {
			t.Errorf("%s: Checksum %d, want 42", kind, r.Checksum)
		}
	}
}

// TestRunnerRefusesGuest: the Guest seam changes the run outside the
// Spec, and a profile or a recording is an artifact of the call that asks
// for it, so a Runner takes none of them: it simulates nothing for them,
// memoizes nothing, and names the field. A later plain Get of the same
// cell simulates it once.
func TestRunnerRefusesGuest(t *testing.T) {
	r := NewRunner(1)
	p := bench.ByName("telco")
	dir := t.TempDir()
	refused := []struct {
		field string
		opt   Options
	}{
		{"Guest", Options{Guest: func(*pylang.VM) {}}},
		{"Profile", Options{Profile: true}},
		{"ProfileDir", Options{ProfileDir: dir}},
		{"Record", Options{Record: true}},
		{"RecordDir", Options{RecordDir: dir}},
	}
	for _, c := range refused {
		_, err := r.Get(p, VMCPython, c.opt)
		if err == nil || !strings.Contains(err.Error(), "Options."+c.field) {
			t.Errorf("Get with %s = %v, want a refusal naming it", c.field, err)
		}
	}
	if r.Simulations() != 0 || len(r.Errs()) != len(refused) {
		t.Errorf("refused cells: %d simulations, %d errors", r.Simulations(), len(r.Errs()))
	}
	if res, err := r.Get(p, VMCPython, Options{}); err != nil || res.Profile != nil || res.Trace != nil {
		t.Fatalf("plain Get after the refusals: %v", err)
	}
	if r.Simulations() != 1 {
		t.Errorf("the plain cell simulated %d times, want 1", r.Simulations())
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("a refused call wrote %d files", len(entries))
	}
}
