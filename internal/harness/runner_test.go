package harness

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"metajit/internal/bench"
	"metajit/internal/cpu"
)

// countingRunner wraps a Runner so the test can count and intercept
// actual simulations through the simulate hook.
func countingRunner(workers int, calls *[]Spec, mu *sync.Mutex) *Runner {
	r := NewRunner(workers)
	inner := r.simulate
	r.simulate = func(p *bench.Program, kind VMKind, opt Options) (*Result, error) {
		mu.Lock()
		*calls = append(*calls, Key(p, kind, opt))
		mu.Unlock()
		return inner(p, kind, opt)
	}
	return r
}

func TestRunnerMemoizesCells(t *testing.T) {
	var calls []Spec
	var mu sync.Mutex
	r := countingRunner(4, &calls, &mu)
	p := bench.ByName("telco")

	first, err := r.Get(p, VMCPython, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Same cell again, including via an Options value that spells out a
	// default behind a pointer.
	params := cpu.DefaultParams()
	if _, err := r.Get(p, VMCPython, Options{Params: &params}); err != nil {
		t.Fatal(err)
	}
	again, err := r.Get(p, VMCPython, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Errorf("expected the identical memoized *Result")
	}
	if len(calls) != 1 {
		t.Errorf("simulated %d times; want 1", len(calls))
	}

	// A different cell (a params override that changes a value)
	// simulates separately.
	params.ClockHz = 2e9
	if _, err := r.Get(p, VMCPython, Options{Params: &params}); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 || r.Simulations() != 2 {
		t.Errorf("simulated %d/%d times; want 2", len(calls), r.Simulations())
	}
}

func TestKeyCanonicalizesOptionPointers(t *testing.T) {
	p := bench.ByName("telco")
	pa, pb := cpu.DefaultParams(), cpu.DefaultParams()
	ka := Key(p, VMPyPyJIT, Options{Params: &pa})
	kb := Key(p, VMPyPyJIT, Options{Params: &pb})
	if ka != kb {
		t.Errorf("equal configs behind distinct pointers must fingerprint identically")
	}
	pb.ClockHz = 2e9
	if ka == Key(p, VMPyPyJIT, Options{Params: &pb}) {
		t.Errorf("different configs must fingerprint differently")
	}
	if Key(p, VMPyPyJIT, Options{}) != ka {
		t.Errorf("nil override and explicit default must be one cell: the Spec holds the resolved value")
	}
}

// TestParallelOutputMatchesSequential is the tentpole's acceptance test:
// regenerating Table I and Figure 2 on a 4-wide pool is byte-identical
// to a fresh sequential regeneration — results may not depend on worker
// scheduling, completion order, or what ran earlier in the process.
func TestParallelOutputMatchesSequential(t *testing.T) {
	suite := []bench.Program{
		*bench.ByName("telco"),
		*bench.ByName("float"),
		*bench.ByName("binarytrees"),
	}
	type out struct{ t1, f2 string }
	render := func(workers int) out {
		r := NewRunner(workers)
		return out{t1: Table1(r, suite), f2: Fig2(r, suite)}
	}
	seq := render(1)
	par := render(4)
	if seq.t1 != par.t1 {
		t.Errorf("Table1 differs between -j 1 and -j 4:\n--- j1\n%s--- j4\n%s", seq.t1, par.t1)
	}
	if seq.f2 != par.f2 {
		t.Errorf("Fig2 differs between -j 1 and -j 4:\n--- j1\n%s--- j4\n%s", seq.f2, par.f2)
	}
}

// TestRunnerPeek: Peek answers only for a cell that is memoized,
// finished and succeeded, never schedules one, and a hit counts as the
// request and hit of the Get it replaces while a miss counts nothing.
func TestRunnerPeek(t *testing.T) {
	r := NewRunner(2)
	gate := make(chan struct{})
	r.simulate = func(p *bench.Program, kind VMKind, opt Options) (*Result, error) {
		<-gate
		if kind == VMC {
			return nil, errors.New("no static kernel")
		}
		return &Result{Bench: p.Name, VM: kind}, nil
	}
	p := bench.ByName("telco")
	if r.Peek(p, VMCPython, Options{}) != nil {
		t.Fatal("Peek found a cell nobody asked for")
	}
	r.Prefetch(p, VMCPython, Options{})
	r.Prefetch(p, VMC, Options{})
	if r.Peek(p, VMCPython, Options{}) != nil {
		t.Fatal("Peek answered for a cell still in flight")
	}
	if got := r.CacheStats(); got != (CacheStats{Requests: 2, Misses: 2}) {
		t.Fatalf("after two prefetches and two empty Peeks: %+v", got)
	}
	close(gate)
	want, err := r.Get(p, VMCPython, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(p, VMC, Options{}); err == nil {
		t.Fatal("the failing cell succeeded")
	}
	if got := r.Peek(p, VMCPython, Options{}); got != want {
		t.Fatalf("Peek = %p, want the memoized result %p", got, want)
	}
	if r.Peek(p, VMC, Options{}) != nil {
		t.Fatal("Peek answered for a failed cell; Get reports its error")
	}
	if got := r.CacheStats(); got != (CacheStats{Requests: 5, Hits: 3, Misses: 2}) {
		t.Fatalf("after two Gets and one Peek that found its cell: %+v", got)
	}
	if r.Simulations() != 2 {
		t.Fatalf("%d simulations, want the two prefetched", r.Simulations())
	}
	r.Evict(p, VMCPython, Options{})
	if r.Peek(p, VMCPython, Options{}) != nil || r.Simulations() != 2 {
		t.Fatal("Peek answered for, or re-simulated, an evicted cell")
	}
}

func TestRunnerErrorPath(t *testing.T) {
	r := NewRunner(2)
	// knucleotide has no static kernel: the cell fails, others proceed.
	progs := []bench.Program{*bench.ByName("nbody"), *bench.ByName("knucleotide")}
	out := Table2(r, progs)
	if errs := r.Errs(); len(errs) != 0 {
		t.Errorf("dash cells are not errors, got %v", errs)
	}
	if strings.Contains(out, errCell) {
		t.Errorf("no ERR cells expected:\n%s", out)
	}

	// Force a failure: a cell whose VM kind is unknown.
	if _, err := r.Get(bench.ByName("nbody"), VMKind("nonesuch"), Options{}); err == nil {
		t.Fatal("expected error")
	}
	errs := r.Errs()
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "nonesuch") {
		t.Errorf("Errs = %v; want the one failed cell", errs)
	}

	// An unknown benchmark fails the cell rather than dereferencing nil.
	if _, err := r.Get(bench.ByName("nonesuch"), VMCPython, Options{}); err == nil {
		t.Fatal("expected unknown-benchmark error")
	}
}

func TestRunnerRecoversPanickingCell(t *testing.T) {
	r := NewRunner(2)
	r.simulate = func(p *bench.Program, kind VMKind, opt Options) (*Result, error) {
		panic("guest blew up")
	}
	if _, err := r.Get(bench.ByName("telco"), VMCPython, Options{}); err == nil ||
		!strings.Contains(err.Error(), "guest blew up") {
		t.Errorf("panic not converted to error: %v", err)
	}
}

// TestTable1ChecksumMismatchContinues fakes a VM whose JIT configuration
// miscomputes one benchmark: the table still renders every row, and the
// mismatch is reported through the Runner for a non-zero exit.
func TestTable1ChecksumMismatchContinues(t *testing.T) {
	r := NewRunner(2)
	inner := r.simulate
	r.simulate = func(p *bench.Program, kind VMKind, opt Options) (*Result, error) {
		res, err := inner(p, kind, opt)
		if err == nil && p.Name == "float" && kind == VMPyPyJIT {
			res.Checksum++
		}
		return res, err
	}
	suite := smallSuite()
	out := Table1(r, suite)
	for _, p := range suite {
		if !strings.Contains(out, p.Name) {
			t.Errorf("row for %s missing despite mismatch:\n%s", p.Name, out)
		}
	}
	errs := r.Errs()
	if len(errs) != 1 {
		t.Fatalf("Errs = %v; want exactly the checksum mismatch", errs)
	}
	if !strings.Contains(errs[0].Error(), "checksum mismatch on float") {
		t.Errorf("unexpected error: %v", errs[0])
	}
}

func TestRunnerFail(t *testing.T) {
	r := NewRunner(1)
	r.Fail(errors.New("external failure"))
	if errs := r.Errs(); len(errs) != 1 || errs[0].Error() != "external failure" {
		t.Errorf("Errs = %v", errs)
	}
}

// TestCellDeterminism guards the substrate invariant the parallel runner
// rests on: re-simulating the same cell in the same process, in any
// order, yields bit-identical cycles (per-run PC allocators, sorted GC
// root iteration).
func TestCellDeterminism(t *testing.T) {
	cells := []struct {
		name string
		vm   VMKind
	}{
		{"telco", VMCPython}, {"binarytrees", VMPyPyJIT},
		{"nbody", VMC}, {"nbody", VMPycket}, {"float", VMPyPyNoJIT},
	}
	for _, c := range cells {
		t.Run(fmt.Sprintf("%s-%s", c.name, c.vm), func(t *testing.T) {
			// Run directly, bypassing every cache: two genuinely fresh
			// simulations must agree for memoized reads to be sound.
			p := bench.ByName(c.name)
			run := func() *Result {
				r, err := Run(p, c.vm, Options{SampleInterval: DefaultSampleInterval})
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			r1, r2 := run(), run()
			if r1.Cycles != r2.Cycles || r1.Instrs != r2.Instrs {
				t.Errorf("nondeterministic cell: %.2f/%d vs %.2f/%d",
					r1.Cycles, r1.Instrs, r2.Cycles, r2.Instrs)
			}
		})
	}
}

func TestSecondsUsesOverriddenClock(t *testing.T) {
	p := bench.ByName("telco")
	slow := cpu.DefaultParams()
	slow.ClockHz = 1e9
	rd := mustRun(t, p, VMCPython, Options{})
	rs := mustRun(t, p, VMCPython, Options{Params: &slow})
	if rd.ClockHz() != 3e9 {
		t.Errorf("default clock = %g; want 3e9", rd.ClockHz())
	}
	if rs.Seconds() != rs.Cycles/1e9 {
		t.Errorf("Seconds() ignores the overridden 1 GHz clock: %g", rs.Seconds())
	}
	if rs.Seconds() <= rd.Seconds() {
		t.Errorf("same work at a third of the clock must take longer")
	}
}
