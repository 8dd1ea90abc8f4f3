package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const fileProg = `
def main():
    s = 0
    i = 0
    while i < 300:
        s = s + i
        i = i + 1
    print(s)
    return s
`

const badProg = `
def main():
    xs = [1, 2]
    print(3)
    return xs[5]
`

// dir holds the command built once for the package's tests, prog.py
// (fileProg) and bad.py (badProg).
var dir string

func TestMain(m *testing.M) {
	os.Exit(func() int {
		var err error
		if dir, err = os.MkdirTemp("", "mtjit-test"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		if out, err := exec.Command("go", "build", "-o", filepath.Join(dir, "mtjit"), ".").CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
			return 1
		}
		for name, src := range map[string]string{"prog.py": fileProg, "bad.py": badProg} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		return m.Run()
	}())
}

// run runs the built command with args and returns its output and exit
// code.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var o, e bytes.Buffer
	cmd := exec.Command(filepath.Join(dir, "mtjit"), args...)
	cmd.Stdout, cmd.Stderr = &o, &e
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return o.String(), e.String(), ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return o.String(), e.String(), 0
}

// TestRefuseForFile: a -file run is harness.Run on a program, so it
// refuses none of the flags a -bench run takes — each writes its
// artifact — and the kinds the harness cannot run the file on are
// refused by the harness, non-zero.
func TestRefuseForFile(t *testing.T) {
	prog := filepath.Join(dir, "prog.py")
	work := t.TempDir()
	prof, rec := filepath.Join(work, "prof"), filepath.Join(work, "rec")
	out, errOut, code := run(t, "-vm", "pypy", "-file", prog, "-threshold", "2",
		"-profile", prof, "-jitlog", "-record", rec, "-telemetry-dump")
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	for _, want := range []string{"44850\nbenchmark: prog.py on pypy\n", "checksum:  44850\n", "---- jit log ----\n# "} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
	if !strings.Contains(errOut, "---- telemetry ----") {
		t.Errorf("stderr lacks the telemetry dump:\n%s", errOut)
	}
	for _, f := range []string{
		"prof/prog.py-pypy.trace.json", "prof/prog.py-pypy.folded", "prof/prog.py-pypy.series.txt",
		"rec/prog.py-pypy.mtt",
	} {
		if st, err := os.Stat(filepath.Join(work, f)); err != nil || st.Size() == 0 {
			t.Errorf("artifact %s: %v", f, err)
		}
	}

	for _, vm := range []string{"racket", "pycket", "c", "bogus"} {
		if _, errOut, code := run(t, "-vm", vm, "-file", prog); code == 0 || !strings.HasPrefix(errOut, "harness: ") {
			t.Errorf("-vm %s: exit %d, stderr %q; want a refusal by the harness", vm, code, errOut)
		}
	}
}

// TestFileConfig: -file takes its guest configuration from the harness's
// VM table, so every Python guest kind runs the file, and the report
// shows a trace JIT and a baseline tier exactly on the kinds that have
// them.
func TestFileConfig(t *testing.T) {
	prog := filepath.Join(dir, "prog.py")
	for _, tc := range []struct {
		vm            string
		jit, baseline bool
	}{
		{"cpython", false, false},
		{"pypy-nojit", false, false},
		{"pypy", true, false},
		{"pypy-tiered", true, true},
		{"pypy-amalg", true, true},
		{"pypy-adaptive", true, true},
	} {
		out, errOut, code := run(t, "-vm", tc.vm, "-file", prog, "-threshold", "2")
		if code != 0 || !strings.Contains(out, "benchmark: prog.py on "+tc.vm+"\n") ||
			!strings.Contains(out, "checksum:  44850\n") {
			t.Errorf("-vm %s: exit %d\nstdout:\n%s\nstderr:\n%s", tc.vm, code, out, errOut)
			continue
		}
		if jit := strings.Contains(out, "\njit: "); jit != tc.jit {
			t.Errorf("-vm %s: trace JIT reported %v, want %v:\n%s", tc.vm, jit, tc.jit, out)
		}
		if baseline := strings.Contains(out, "\ntier1: "); baseline != tc.baseline {
			t.Errorf("-vm %s: baseline tier reported %v, want %v:\n%s", tc.vm, baseline, tc.baseline, out)
		}
	}
}

// TestFileRun: a guest error in a -file run exits 1 with the guest's
// output so far and its message, and no Go stack.
func TestFileRun(t *testing.T) {
	out, errOut, code := run(t, "-vm", "pypy", "-file", filepath.Join(dir, "bad.py"))
	if code != 1 || out != "3\n" || !strings.Contains(errOut, "pylang: list index out of range") ||
		strings.Contains(errOut, "goroutine") {
		t.Errorf("guest error: exit %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
}
