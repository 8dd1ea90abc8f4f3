// Command experiments regenerates every table and figure of the paper's
// evaluation section on the simulated stack.
//
// Cells — distinct (benchmark, VM, options) simulations — are memoized
// and run on a bounded worker pool, so -exp all simulates each cell once
// no matter how many tables share it, and output is identical for any -j.
//
// Usage:
//
//	experiments -exp table1|table2|table3|table4|fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|all [-j N]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"metajit/internal/bench"
	"metajit/internal/harness"
	"metajit/internal/trace"
)

func main() {
	exp := flag.String("exp", "all", "experiment to regenerate (table1..4, fig2..10, all)")
	jobs := flag.Int("j", 0, "max concurrent cell simulations (0 = NumCPU)")
	profileDir := flag.String("profile", "", "also run the PyPy suite under the streaming profiler, writing Chrome traces, folded flamegraphs, and interval series to this directory")
	recordDir := flag.String("record", "", "also record the PyPy suite as workload traces (.mtt) into this directory")
	tracesDir := flag.String("traces", "", "replay every committed trace fixture (*.mtt) in this directory, verifying each against its recorded summary")
	stats := flag.Bool("stats", false, "print memo-cache statistics and the live heap per held cell to stderr after the run")
	flag.Parse()

	pypy := bench.PyPySuite()
	clbg := bench.CLBG()
	runner := harness.NewRunner(*jobs)

	experiments := []struct {
		name string
		f    func() string
	}{
		{"table1", func() string { return harness.Table1(runner, pypy) }},
		{"table2", func() string { return harness.Table2(runner, clbg) }},
		{"fig2", func() string { return harness.Fig2(runner, pypy) }},
		{"fig3", func() string { return harness.Fig3(runner, "crypto_pyaes", "meteor_contest") }},
		{"fig4", func() string { return harness.Fig4(runner, clbg) }},
		{"table3", func() string { return harness.Table3(runner, pypy) }},
		{"fig5", func() string { return harness.Fig5(runner, pypy) }},
		{"fig6", func() string { return harness.Fig6(runner, pypy) }},
		{"fig7", func() string { return harness.Fig7(runner, pypy) }},
		{"fig8", func() string { return harness.Fig8(runner, pypy) }},
		{"fig9", func() string { return harness.Fig9(runner, pypy) }},
		{"fig10", func() string { return harness.Fig10(runner, pypy) }},
		{"table4", func() string { return harness.Table4(runner, pypy) }},
	}

	known := *exp == "all"
	for _, e := range experiments {
		if *exp == e.name {
			known = true
		}
	}
	if !known {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	// Assemble every selected experiment concurrently: each prefetches
	// its cells onto the shared pool before blocking, so cells unique to
	// late experiments overlap with early ones. Output order is fixed by
	// the experiment list, not by completion order.
	outputs := make([]chan string, len(experiments))
	for i, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ch := make(chan string, 1)
		outputs[i] = ch
		go func(f func() string) { ch <- f() }(e.f)
	}
	for _, ch := range outputs {
		if ch != nil {
			fmt.Println(<-ch)
		}
	}

	// Profiled cells run after the tables so they reuse the warmed pool
	// without perturbing memoized cells (Profile is part of what a cell
	// is; the directory is not). Artifacts are written by the call that
	// simulates the cell, and nothing before this loop asked for a
	// profiled one; the summary goes to stderr to keep stdout
	// byte-identical to an unprofiled run of the same experiments.
	if *profileDir != "" {
		for _, kind := range []harness.VMKind{harness.VMPyPyJIT, harness.VMPyPyTiered} {
			for i := range pypy {
				p := &pypy[i]
				res, err := runner.Get(p, kind, harness.Options{ProfileDir: *profileDir})
				if err != nil {
					runner.Fail(err)
					continue
				}
				if perr := res.Profile.Err(); perr != nil {
					runner.Fail(fmt.Errorf("%s/%s: profile: %w", p.Name, kind, perr))
					continue
				}
				fmt.Fprintf(os.Stderr, "profiled %s/%s: %d spans -> %s\n", p.Name, kind, res.Profile.Stream.Spans,
					strings.Join(harness.ProfileArtifacts(*profileDir, p.Name, kind), " "))
			}
		}
	}

	// Recorded cells follow the same pattern as profiled ones: they run
	// after the tables on the warmed pool (Record is part of what a cell
	// is, so recording never perturbs a memoized unrecorded cell), the
	// trace files land in -record as each cell simulates, and the summary
	// goes to stderr.
	if *recordDir != "" {
		for _, kind := range []harness.VMKind{harness.VMPyPyJIT, harness.VMPyPyTiered} {
			for i := range pypy {
				p := &pypy[i]
				res, err := runner.Get(p, kind, harness.Options{RecordDir: *recordDir})
				if err != nil {
					runner.Fail(err)
					continue
				}
				fmt.Fprintf(os.Stderr, "recorded %s/%s: %d events -> %s\n",
					p.Name, kind, res.Trace.Summary.Events,
					filepath.Join(*recordDir, trace.FileName(p.Name, string(kind))))
			}
		}
	}

	// Fixture replay: load every committed recording and re-drive it
	// under the configuration sealed in its header, demanding the
	// recorded summary and event stream bit-exactly (trace.CheckReplay,
	// the comparison difftest.CheckReplay makes) — a table of verified
	// fixtures on stdout, non-zero exit if any diverges.
	if *tracesDir != "" {
		progs, err := bench.LoadTraceDir(*tracesDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("Recorded workload fixtures (%s)\n", *tracesDir)
		fmt.Printf("%-24s %-12s %10s %12s  %s\n", "fixture", "vm", "events", "instrs", "replay")
		for i := range progs {
			p := &progs[i]
			tr := p.Trace
			ropt := harness.ReplayOptions(tr)
			ropt.Record = true
			res, err := runner.Get(p, harness.VMKind(tr.Header.VM), ropt)
			status := "verified"
			if err != nil {
				runner.Fail(err)
				status = "ERROR"
			} else if err := trace.CheckReplay(tr, res.Trace); err != nil {
				runner.Fail(fmt.Errorf("%s: replay DIVERGED: %w", p.Name, err))
				status = "DIVERGED"
			}
			fmt.Printf("%-24s %-12s %10d %12d  %s\n",
				p.Name, tr.Header.VM, tr.Summary.Events, tr.Summary.Instrs, status)
		}
	}

	// Cache statistics go to stderr so stdout (results.txt) stays
	// byte-identical with and without -stats.
	if *stats {
		cs := runner.CacheStats()
		fmt.Fprintf(os.Stderr, "cache: %d requests, %d hits, %d misses, %d evictions (%.1f%% hit rate)\n",
			cs.Requests, cs.Hits, cs.Misses, cs.Evictions, 100*cs.HitRate())
		// What the memo retains against what it serves: the live heap
		// once every table is rendered, after two collections (the second
		// frees what the first one's finalizers released), over the cells
		// still held — each miss inserted one, each eviction removed one.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		cells := cs.Misses - cs.Evictions
		fmt.Fprintf(os.Stderr, "heap: %.1f MB live, %d cells held (%.1f KB per cell)\n",
			float64(ms.HeapAlloc)/(1<<20), cells, float64(ms.HeapAlloc)/1024/float64(max(cells, 1)))
	}

	if errs := runner.Errs(); len(errs) > 0 {
		// Sorted so the summary is stable no matter which goroutine
		// registered a cell first.
		msgs := make([]string, len(errs))
		for i, err := range errs {
			msgs[i] = err.Error()
		}
		sort.Strings(msgs)
		fmt.Fprintf(os.Stderr, "%d failure(s):\n", len(msgs))
		for _, m := range msgs {
			fmt.Fprintf(os.Stderr, "  %s\n", m)
		}
		os.Exit(1)
	}
}
