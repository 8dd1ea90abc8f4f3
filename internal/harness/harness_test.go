package harness

import (
	"strings"
	"testing"

	"metajit/internal/bench"
	"metajit/internal/core"
)

// sharedRunner memoizes cells across the package's whole-suite tests —
// the same dedup cmd/experiments relies on. Several tests read the same
// (bench, VM, default-options) cells; simulating each once keeps the
// suite tractable under -race. TestCellDeterminism guards the invariant
// that makes this sharing sound (a cached result equals a fresh one).
var sharedRunner = NewRunner(0)

// mustRun reads one cell through the shared cache, failing the test on
// error; the test-side replacement for the removed MustRun panic helper.
func mustRun(t testing.TB, p *bench.Program, kind VMKind, opt Options) *Result {
	t.Helper()
	r, err := sharedRunner.Get(p, kind, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestAllBenchmarksAgreeAcrossVMs is the master differential test: every
// benchmark must produce the same checksum on the reference interpreter,
// the framework interpreter, and the meta-tracing JIT; Scheme variants
// must agree between the custom-VM baseline and the meta-tracing backend.
func TestAllBenchmarksAgreeAcrossVMs(t *testing.T) {
	for _, p := range bench.All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			rc := mustRun(t, &p, VMCPython, Options{})
			rn := mustRun(t, &p, VMPyPyNoJIT, Options{})
			rj := mustRun(t, &p, VMPyPyJIT, Options{})
			if rc.Checksum != rn.Checksum || rc.Checksum != rj.Checksum {
				t.Fatalf("checksums differ: cpython=%d nojit=%d jit=%d",
					rc.Checksum, rn.Checksum, rj.Checksum)
			}
			if rj.EngStats.LoopsCompiled == 0 {
				t.Errorf("JIT compiled no loops")
			}
			if p.SkSource != "" {
				rr := mustRun(t, &p, VMRacket, Options{})
				rp := mustRun(t, &p, VMPycket, Options{})
				if rr.Checksum != rp.Checksum {
					t.Fatalf("scheme checksums differ: racket=%d pycket=%d",
						rr.Checksum, rp.Checksum)
				}
			}
		})
	}
}

func TestJITSpeedupShape(t *testing.T) {
	// The headline result: the meta-tracing JIT beats the reference
	// interpreter on most benchmarks, strongly on the best ones.
	wins := 0
	var best float64
	progs := bench.PyPySuite()
	for i := range progs {
		rc := mustRun(t, &progs[i], VMCPython, Options{})
		rj := mustRun(t, &progs[i], VMPyPyJIT, Options{})
		sp := rc.Cycles / rj.Cycles
		if sp > 1 {
			wins++
		}
		if sp > best {
			best = sp
		}
		t.Logf("%-20s speedup %.2fx", progs[i].Name, sp)
	}
	if wins < len(progs)*2/3 {
		t.Errorf("JIT won only %d/%d benchmarks", wins, len(progs))
	}
	if best < 4 {
		t.Errorf("best speedup %.2fx; expected substantial wins on numeric kernels", best)
	}
}

func TestFrameworkInterpreterSlowerThanReference(t *testing.T) {
	// Table I discussion: the reference interpreter usually beats the
	// framework interpreter without JIT, by roughly 2x.
	slower := 0
	progs := bench.PyPySuite()
	for i := range progs {
		rc := mustRun(t, &progs[i], VMCPython, Options{})
		rn := mustRun(t, &progs[i], VMPyPyNoJIT, Options{})
		if rn.Cycles > rc.Cycles {
			slower++
		}
	}
	if slower != len(progs) {
		t.Errorf("framework interp slower on %d/%d; expected all", slower, len(progs))
	}
}

func TestPhaseBreakdownSane(t *testing.T) {
	p := bench.ByName("richards")
	r := mustRun(t, p, VMPyPyJIT, Options{})
	var sum float64
	for _, ph := range core.AllPhases() {
		f := r.PhaseFraction(ph)
		if f < 0 || f > 1 {
			t.Errorf("phase %v fraction %f out of range", ph, f)
		}
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("phase fractions sum to %f", sum)
	}
	// Steady-state richards should spend most time in JIT-related
	// phases, not plain interpretation.
	jitish := r.PhaseFraction(core.PhaseJIT) + r.PhaseFraction(core.PhaseJITCall)
	if jitish < 0.2 {
		t.Errorf("richards spends only %.1f%% in jit phases", 100*jitish)
	}
}

func TestGCHeavyBenchmarkShowsGCPhase(t *testing.T) {
	r := mustRun(t, bench.ByName("binarytrees"), VMPyPyJIT, Options{})
	if r.PhaseFraction(core.PhaseGC) < 0.02 {
		t.Errorf("binarytrees GC fraction %.2f%%; expected pronounced GC",
			100*r.PhaseFraction(core.PhaseGC))
	}
}

func TestAOTAttributionFindsBigintForPidigits(t *testing.T) {
	r := mustRun(t, bench.ByName("pidigits"), VMPyPyJIT, Options{})
	var bigCycles, total float64
	for _, f := range r.AOT {
		total += f.Cycles
		if strings.HasPrefix(f.Name, "rbigint") {
			bigCycles += f.Cycles
		}
		if f.Calls == 0 {
			t.Errorf("%s: %.0f cycles attributed over no calls", f.Name, f.Cycles)
		}
	}
	if total == 0 || bigCycles/r.Cycles < 0.10 {
		t.Errorf("pidigits rbigint share = %.1f%% of cycles; expected dominant",
			100*bigCycles/r.Cycles)
	}
}

func TestStaticKernelsFasterThanJIT(t *testing.T) {
	for _, name := range []string{"spectral_norm", "nbody", "mandelbrot", "fannkuch"} {
		p := bench.ByName(name)
		rs := mustRun(t, p, VMC, Options{})
		rj := mustRun(t, p, VMPyPyJIT, Options{})
		if rs.Cycles >= rj.Cycles {
			t.Errorf("%s: static (%0.f) not faster than JIT (%.0f)", name, rs.Cycles, rj.Cycles)
		}
	}
}

func TestWarmupBreakEven(t *testing.T) {
	w, err := Fig5Data(NewRunner(0), bench.ByName("crypto_pyaes"), 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if w.BreakEvenNoJIT == 0 {
		t.Errorf("no break-even vs noJIT found")
	}
	if w.FinalSpeedup < 1 {
		t.Errorf("final speedup %.2f < 1", w.FinalSpeedup)
	}
	if w.BreakEvenCPy != 0 && w.BreakEvenNoJIT > w.BreakEvenCPy {
		t.Errorf("break-even vs noJIT (%d) later than vs CPython (%d)",
			w.BreakEvenNoJIT, w.BreakEvenCPy)
	}
}

// TestReturnInsideResidentLoopClosesSpans: a main that returns from
// inside a loop resident in tier-1 code must still end that residency,
// or the profiler reports the baseline span open at end of stream.
func TestReturnInsideResidentLoopClosesSpans(t *testing.T) {
	p := &bench.Program{Name: "early-return", Suite: "pypy", Source: `
def main():
    i = 0
    while i < 1000:
        i = i + 1
        if i > 50:
            return i
`}
	res, err := Run(p, VMPyPyTiered, Options{Threshold: 1 << 20, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checksum != 51 || res.EngStats.BaselineEnters == 0 {
		t.Fatalf("checksum %d, %d baseline enters: the loop did not return while resident",
			res.Checksum, res.EngStats.BaselineEnters)
	}
	if err := res.Profile.Err(); err != nil {
		t.Error(err)
	}
}
