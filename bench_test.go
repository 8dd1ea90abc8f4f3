// Benchmark entry points: one testing.B target per paper table/figure,
// plus ablation benches for the design choices DESIGN.md calls out.
// Reported custom metrics are simulated cycles and instructions (the
// quantities the paper's tables hold); wall time measures the simulator.
package main

import (
	"testing"

	"metajit/internal/bench"
	"metajit/internal/cpu"
	"metajit/internal/harness"
	"metajit/internal/mtjit"
)

func reportResult(b *testing.B, r *harness.Result) {
	// Metrics describe one benchmark execution (the last), independent of
	// how many iterations the bench framework chose.
	b.ReportMetric(r.Cycles, "simcycles")
	b.ReportMetric(float64(r.Instrs), "siminstrs")
	b.ReportMetric(r.Total.IPC(), "IPC")
	b.ReportMetric(r.Total.MPKI(), "MPKI")
}

// run executes one cell, failing the bench on configuration errors (the
// harness returns errors instead of panicking).
func run(b *testing.B, p *bench.Program, kind harness.VMKind, opt harness.Options) *harness.Result {
	b.Helper()
	r, err := harness.Run(p, kind, opt)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func benchOne(b *testing.B, name string, kind harness.VMKind, opt harness.Options) {
	p := bench.ByName(name)
	if p == nil {
		b.Fatalf("no benchmark %q", name)
	}
	var last *harness.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = run(b, p, kind, opt)
	}
	b.StopTimer()
	reportResult(b, last)
}

// BenchmarkExperimentsAll measures one full memoized regeneration of the
// evaluation's PyPy-suite tables and figures on the parallel Runner — a
// fresh Runner per iteration, so each iteration simulates every distinct
// cell exactly once on a NumCPU-wide pool.
func BenchmarkExperimentsAll(b *testing.B) {
	pypy := bench.PyPySuite()
	clbg := bench.CLBG()
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(0)
		harness.Table1(r, pypy)
		harness.Table2(r, clbg)
		harness.Fig2(r, pypy)
		harness.Fig3(r, "crypto_pyaes", "meteor_contest")
		harness.Fig4(r, clbg)
		harness.Table3(r, pypy)
		harness.Fig5(r, pypy)
		harness.Fig6(r, pypy)
		harness.Fig7(r, pypy)
		harness.Fig8(r, pypy)
		harness.Fig9(r, pypy)
		harness.Table4(r, pypy)
		if errs := r.Errs(); len(errs) > 0 {
			b.Fatal(errs[0])
		}
		b.ReportMetric(float64(r.Simulations()), "cells")
	}
}

// BenchmarkTable1 regenerates Table I's three columns on the PyPy suite.
func BenchmarkTable1(b *testing.B) {
	for _, kind := range []harness.VMKind{harness.VMCPython, harness.VMPyPyNoJIT, harness.VMPyPyJIT} {
		for _, p := range bench.PyPySuite() {
			b.Run(string(kind)+"/"+p.Name, func(b *testing.B) {
				benchOne(b, p.Name, kind, harness.Options{})
			})
		}
	}
}

// BenchmarkTable2 regenerates Table II's CLBG rows (C, CPython, PyPy,
// Racket, Pycket).
func BenchmarkTable2(b *testing.B) {
	for _, p := range bench.CLBG() {
		for _, kind := range []harness.VMKind{harness.VMC, harness.VMCPython, harness.VMPyPyJIT, harness.VMRacket, harness.VMPycket} {
			if kind == harness.VMC && !p.Static {
				continue
			}
			if (kind == harness.VMRacket || kind == harness.VMPycket) && p.SkSource == "" {
				continue
			}
			b.Run(p.Name+"/"+string(kind), func(b *testing.B) {
				benchOne(b, p.Name, kind, harness.Options{})
			})
		}
	}
}

// BenchmarkFig2Phases runs the JIT configuration and reports the phase mix
// (Figure 2's data) for a representative subset.
func BenchmarkFig2Phases(b *testing.B) {
	for _, name := range []string{"richards", "pidigits", "binarytrees", "spectral_norm", "telco"} {
		b.Run(name, func(b *testing.B) {
			p := bench.ByName(name)
			var last *harness.Result
			for i := 0; i < b.N; i++ {
				last = run(b, p, harness.VMPyPyJIT, harness.Options{})
			}
			reportResult(b, last)
			b.ReportMetric(100*last.PhaseFraction(2), "jit%")
			b.ReportMetric(100*last.PhaseFraction(3), "jitcall%")
			b.ReportMetric(100*last.PhaseFraction(4), "gc%")
		})
	}
}

// BenchmarkFig5Warmup measures the warmup study's sampled run. A fresh
// Runner per iteration keeps the three underlying cells unmemoized so the
// simulator, not the cache, is what's timed.
func BenchmarkFig5Warmup(b *testing.B) {
	p := bench.ByName("crypto_pyaes")
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig5Data(harness.NewRunner(0), p, harness.DefaultSampleInterval); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6IRStats exercises the JIT-IR-level statistics pipeline.
func BenchmarkFig6IRStats(b *testing.B) {
	p := bench.ByName("richards")
	for i := 0; i < b.N; i++ {
		r := run(b, p, harness.VMPyPyJIT, harness.Options{})
		if r.IR.CompiledNodes() == 0 || r.IR.Hot95 == 0 {
			b.Fatal("no IR stats")
		}
		r.IR.Categories()
	}
}

// BenchmarkTable3AOT exercises Table III's AOT attribution on pidigits.
func BenchmarkTable3AOT(b *testing.B) {
	p := bench.ByName("pidigits")
	for i := 0; i < b.N; i++ {
		r := run(b, p, harness.VMPyPyJIT, harness.Options{})
		if len(r.AOT) == 0 {
			b.Fatal("no AOT attribution")
		}
	}
}

// BenchmarkTable4PerPhase runs the per-phase microarchitecture study input.
func BenchmarkTable4PerPhase(b *testing.B) {
	p := bench.ByName("richards")
	for i := 0; i < b.N; i++ {
		r := run(b, p, harness.VMPyPyJIT, harness.Options{})
		_ = r.Phases
	}
}

// ---- ablations (DESIGN.md section 5) ----

// BenchmarkAblationEscapeAnalysis compares the float benchmark with and
// without allocation removal: the paper credits escape analysis for the
// drop in GC pressure once the JIT warms up.
func BenchmarkAblationEscapeAnalysis(b *testing.B) {
	withOut := mtjit.AllOpts()
	withOut.Virtuals = false
	for _, c := range []struct {
		name string
		opts mtjit.OptConfig
	}{{"on", mtjit.AllOpts()}, {"off", withOut}} {
		b.Run(c.name, func(b *testing.B) {
			o := c.opts
			var last *harness.Result
			for i := 0; i < b.N; i++ {
				last = run(b, bench.ByName("float"), harness.VMPyPyJIT,
					harness.Options{Opts: &o})
			}
			reportResult(b, last)
			b.ReportMetric(float64(last.GC.AllocObjects), "allocs")
		})
	}
}

// BenchmarkAblationOptimizer toggles each optimizer pass on richards.
func BenchmarkAblationOptimizer(b *testing.B) {
	configs := []struct {
		name string
		opts mtjit.OptConfig
	}{
		{"all", mtjit.AllOpts()},
		{"none", mtjit.NoOpts()},
		{"fold-only", mtjit.OptConfig{Fold: true}},
		{"cse-only", mtjit.OptConfig{CSE: true}},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			o := c.opts
			var last *harness.Result
			for i := 0; i < b.N; i++ {
				last = run(b, bench.ByName("richards"), harness.VMPyPyJIT,
					harness.Options{Opts: &o})
			}
			reportResult(b, last)
		})
	}
}

// BenchmarkAblationBridges compares bridge compilation on vs off: without
// bridges every hot guard failure pays a full deoptimization round trip.
func BenchmarkAblationBridges(b *testing.B) {
	for _, c := range []struct {
		name      string
		threshold int
	}{
		{"on", 0},        // engine default
		{"off", 1 << 30}, // failures never promote to bridges
	} {
		b.Run(c.name, func(b *testing.B) {
			var last *harness.Result
			for i := 0; i < b.N; i++ {
				last = run(b, bench.ByName("richards"), harness.VMPyPyJIT,
					harness.Options{BridgeThreshold: c.threshold})
			}
			reportResult(b, last)
			b.ReportMetric(float64(last.Events.Deopts), "deopts")
			b.ReportMetric(float64(last.Events.BridgeEnters), "bridge-enters")
		})
	}
}

// BenchmarkAblationThreshold sweeps the JIT hot-loop threshold (warmup
// break-even movement).
func BenchmarkAblationThreshold(b *testing.B) {
	for _, th := range []int{13, 57, 223, 997} {
		b.Run(thName(th), func(b *testing.B) {
			var last *harness.Result
			for i := 0; i < b.N; i++ {
				last = run(b, bench.ByName("crypto_pyaes"), harness.VMPyPyJIT,
					harness.Options{Threshold: th})
			}
			reportResult(b, last)
		})
	}
}

func thName(th int) string {
	switch th {
	case 13:
		return "eager-13"
	case 57:
		return "default-57"
	case 223:
		return "lazy-223"
	}
	return "very-lazy-997"
}

// BenchmarkAblationBranchPredictor compares the dynamic predictor against
// static prediction (MPKI sensitivity of the interpreter vs JIT code).
func BenchmarkAblationBranchPredictor(b *testing.B) {
	for _, c := range []struct {
		name   string
		params cpu.Params
	}{
		{"gshare", cpu.DefaultParams()},
		{"static", cpu.StaticPredictorParams()},
	} {
		for _, vm := range []harness.VMKind{harness.VMCPython, harness.VMPyPyJIT} {
			b.Run(c.name+"/"+string(vm), func(b *testing.B) {
				p := c.params
				var last *harness.Result
				for i := 0; i < b.N; i++ {
					last = run(b, bench.ByName("richards"), vm,
						harness.Options{Params: &p})
				}
				reportResult(b, last)
			})
		}
	}
}

// BenchmarkVMSubstrate measures raw simulator throughput (CPU model +
// heap) independent of any experiment.
func BenchmarkVMSubstrate(b *testing.B) {
	p := bench.ByName("telco")
	for i := 0; i < b.N; i++ {
		run(b, p, harness.VMCPython, harness.Options{})
	}
}
