package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"metajit/internal/bench"
	"metajit/internal/harness"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// subset picks the named programs out of the PyPy suite, in suite order.
func subset(t *testing.T, names ...string) []bench.Program {
	t.Helper()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var progs []bench.Program
	for _, p := range bench.PyPySuite() {
		if want[p.Name] {
			progs = append(progs, p)
		}
	}
	if len(progs) != len(want) {
		t.Fatalf("subset selected %d of %d programs; suite renamed?", len(progs), len(want))
	}
	return progs
}

// checkGolden renders over a fresh Runner and compares the output byte
// for byte against testdata/<name>; -update rewrites the file.
func checkGolden(t *testing.T, name string, render func(*harness.Runner) string) {
	t.Helper()
	runner := harness.NewRunner(0)
	got := render(runner)
	if errs := runner.Errs(); len(errs) > 0 {
		t.Fatalf("runner errors: %v", errs)
	}

	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(wantBytes) {
		t.Errorf("output drifted from %s:\n--- golden\n%s\n--- got\n%s", golden, wantBytes, got)
	}
}

// TestTable1Golden renders Table I over a small fixed subset of the PyPy
// suite in process and compares it byte-for-byte against the checked-in
// golden file. The simulator is deterministic, so any drift in cycle
// counts, IPC, MPKI, or formatting shows up as a diff here before it
// silently changes the paper tables. Regenerate with:
//
//	go test ./cmd/experiments -run TestTable1Golden -update
func TestTable1Golden(t *testing.T) {
	progs := subset(t, "telco", "pidigits")
	checkGolden(t, "table1_subset.golden", func(r *harness.Runner) string {
		return harness.Table1(r, progs)
	})
}

// TestFig10Golden pins the tiered-warmup figure (Figure 10) on a small
// fixed subset the same way TestTable1Golden pins Table I. Regenerate
// with:
//
//	go test ./cmd/experiments -run TestFig10Golden -update
func TestFig10Golden(t *testing.T) {
	progs := subset(t, "telco", "pidigits")
	checkGolden(t, "fig10_subset.golden", func(r *harness.Runner) string {
		return harness.Fig10(r, progs)
	})
}

// TestIRFiguresGolden pins the renderings that reduce a run's JIT log and
// AOT attribution — Figures 6-9 and Table III — over four programs:
// richards (bridges and deoptimizations), pidigits (its time is in AOT
// bigint calls, so Table III has rows), telco and chaos. The golden was
// recorded while the figures still walked the live jitlog.Log and
// AOTAttributor of each Result; the tables a Result carries now must
// print the same bytes.
func TestIRFiguresGolden(t *testing.T) {
	progs := subset(t, "richards", "chaos", "telco", "pidigits")
	checkGolden(t, "ir_subset.golden", func(r *harness.Runner) string {
		return harness.Fig6(r, progs) + harness.Fig7(r, progs) + harness.Fig8(r, progs) +
			harness.Fig9(r, progs) + harness.Table3(r, progs)
	})
}

// TestTieredWarmupRegression is the headline acceptance check for the
// two-tier configuration: on a majority of the sampled suite (and at
// least 3 programs), the tiered VM must reach 25% of the run's guest
// work in no more cycles than the single-tier JIT, with byte-identical
// checksums. It guards against the baseline tier regressing into pure
// overhead.
func TestTieredWarmupRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite warmup comparison is slow")
	}
	runner := harness.NewRunner(0)
	opt := harness.Options{SampleInterval: harness.DefaultSampleInterval}
	progs := bench.PyPySuite()
	for i := range progs {
		runner.Prefetch(&progs[i], harness.VMPyPyJIT, opt)
		runner.Prefetch(&progs[i], harness.VMPyPyTiered, opt)
	}
	faster, total := 0, 0
	for i := range progs {
		p := &progs[i]
		rj, errJ := runner.Get(p, harness.VMPyPyJIT, opt)
		rt, errT := runner.Get(p, harness.VMPyPyTiered, opt)
		if errJ != nil || errT != nil {
			t.Fatalf("%s: run errors: %v / %v", p.Name, errJ, errT)
		}
		if rj.Checksum != rt.Checksum {
			t.Errorf("%s: tiered checksum %d != single-tier %d", p.Name, rt.Checksum, rj.Checksum)
		}
		j25 := harness.WarmupCycles(rj, 0.25)
		t25 := harness.WarmupCycles(rt, 0.25)
		total++
		if t25 <= j25 {
			faster++
		} else {
			t.Logf("%s: tiered warmup slower (%.2fM vs %.2fM cycles to 25%% work)",
				p.Name, t25/1e6, j25/1e6)
		}
	}
	if faster < 3 {
		t.Errorf("tiered warmup faster on only %d/%d programs; want >= 3", faster, total)
	}
}

// TestTierShootoutRegression is the headline acceptance check for the
// adaptive tier controller: over the full PyPy suite (Figure 10's
// shootout data), the adaptive configuration must reach 25% of the
// run's guest work in no more cycles than the static tiered
// configuration on all but at most 3 benchmarks, and must never be more
// than 5% slower on any. Fig10Data already cross-checks checksums and
// work totals across the four strategies, so this test only has to
// judge warmup.
func TestTierShootoutRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite shootout comparison is slow")
	}
	// Column indexes into TierRow arrays, in TierStrategies order.
	const tiered, adaptive = 1, 3
	runner := harness.NewRunner(0)
	progs := bench.PyPySuite()
	rows := harness.Fig10Data(runner, progs)
	if errs := runner.Errs(); len(errs) > 0 {
		t.Fatalf("runner errors: %v", errs)
	}
	noWorse, total := 0, 0
	for _, row := range rows {
		if row.Err {
			t.Fatalf("%s: shootout row errored", row.Bench)
		}
		total++
		a, s := row.W25[adaptive], row.W25[tiered]
		if a <= s {
			noWorse++
		} else {
			t.Logf("%s: adaptive warmup slower (%.2fM vs %.2fM cycles to 25%% work)",
				row.Bench, a/1e6, s/1e6)
		}
		if a > s*1.05 {
			t.Errorf("%s: adaptive warmup %.2fM cycles is more than 5%% over static tiered %.2fM",
				row.Bench, a/1e6, s/1e6)
		}
	}
	if want := total - 3; noWorse < want {
		t.Errorf("adaptive warmup no worse than static tiered on only %d/%d programs; want >= %d",
			noWorse, total, want)
	}
}
