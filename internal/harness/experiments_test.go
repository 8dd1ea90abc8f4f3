package harness

import (
	"strings"
	"testing"

	"metajit/internal/bench"
	"metajit/internal/reqtrace"
)

// A small sub-corpus keeps formatter tests fast.
func smallSuite() []bench.Program {
	return []bench.Program{
		*bench.ByName("telco"),
		*bench.ByName("float"),
	}
}

// testRunner is a fresh sequential Runner for tests that count
// simulations; pure formatter tests read through sharedRunner instead
// so repeated cells simulate once for the whole package.
func testRunner() *Runner { return NewRunner(1) }

func TestTable1Format(t *testing.T) {
	out := Table1(sharedRunner, smallSuite())
	if !strings.Contains(out, "telco") || !strings.Contains(out, "float") {
		t.Fatalf("missing benchmarks:\n%s", out)
	}
	if !strings.Contains(out, "IPC") || !strings.Contains(out, "MPKI") {
		t.Fatalf("missing columns:\n%s", out)
	}
	// Rows are sorted by speedup: float (numeric) should come first.
	if strings.Index(out, "float") > strings.Index(out, "telco") {
		t.Errorf("rows not sorted by speedup:\n%s", out)
	}
}

func TestTable2Format(t *testing.T) {
	progs := []bench.Program{*bench.ByName("nbody"), *bench.ByName("knucleotide")}
	out := Table2(sharedRunner, progs)
	if !strings.Contains(out, "Pycket") || !strings.Contains(out, "Racket") {
		t.Fatalf("missing VM columns:\n%s", out)
	}
	// knucleotide has no scheme port nor static kernel: dashes.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "knucleotide") && !strings.Contains(line, "-") {
			t.Errorf("expected '-' cells for knucleotide: %s", line)
		}
	}
}

func TestFig2AndFig7Format(t *testing.T) {
	r := sharedRunner
	out := Fig2(r, smallSuite())
	for _, col := range []string{"interp", "tracing", "jit", "gc", "blkhole"} {
		if !strings.Contains(out, col) {
			t.Errorf("fig2 missing column %s", col)
		}
	}
	out7 := Fig7(r, smallSuite())
	if !strings.Contains(out7, "MEAN") || !strings.Contains(out7, "guard") {
		t.Errorf("fig7 malformed:\n%s", out7)
	}
}

func TestFig6Fig8Fig9Format(t *testing.T) {
	r := testRunner()
	suite := smallSuite()
	if out := Fig6(r, suite); !strings.Contains(out, "hot95") {
		t.Errorf("fig6 malformed:\n%s", out)
	}
	if out := Fig8(r, suite); !strings.Contains(out, "guard_class") {
		t.Errorf("fig8 missing guard_class:\n%s", out)
	}
	out9 := Fig9(r, suite)
	if !strings.Contains(out9, "jump") {
		t.Errorf("fig9 missing jump:\n%s", out9)
	}
	// call_assembler must top Figure 9 when present; at minimum the
	// first listed node has the largest footprint.
	lines := strings.Split(strings.TrimSpace(out9), "\n")
	if len(lines) < 3 {
		t.Fatalf("fig9 too short")
	}
	// Fig6..Fig9 share the same cells: two benchmarks, one VM config.
	if got := r.Simulations(); got != 2 {
		t.Errorf("fig6-fig9 simulated %d cells; want 2 (memoized)", got)
	}
}

func TestTable4Format(t *testing.T) {
	out := Table4(sharedRunner, smallSuite())
	if !strings.Contains(out, "jit") || !strings.Contains(out, "+/-") {
		t.Errorf("table4 malformed:\n%s", out)
	}
	if strings.Contains(out, "jit_call") {
		t.Errorf("table4 must fold jit_call into jit:\n%s", out)
	}
}

func TestTable3DataThreshold(t *testing.T) {
	entries := Table3Data(sharedRunner, []bench.Program{*bench.ByName("pidigits")}, 5)
	if len(entries) == 0 {
		t.Fatalf("pidigits must show significant AOT functions")
	}
	for _, e := range entries {
		if e.Percent < 5 {
			t.Errorf("entry below threshold: %+v", e)
		}
		if e.Src == "" || e.Name == "" {
			t.Errorf("entry missing metadata: %+v", e)
		}
	}
	// Dominated by rbigint.
	if !strings.HasPrefix(entries[0].Name, "rbigint") {
		t.Errorf("pidigits top AOT fn = %s, want rbigint.*", entries[0].Name)
	}
}

func TestFig3Format(t *testing.T) {
	out := Fig3(sharedRunner, "telco", "telco")
	if !strings.Contains(out, "interval phase mix") {
		t.Fatalf("fig3 malformed:\n%s", out)
	}
	// Every bar is exactly 40 characters: largest-remainder rounding
	// pads and trims the truncation error of the old int(40*d/total)
	// bars, so small nonzero phases stay visible and widths align.
	bars := 0
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 || !strings.ContainsAny(fields[1], "ITJCGB") {
			continue
		}
		if strings.Trim(fields[1], "ITJCGB") != "" {
			continue
		}
		bars++
		if len(fields[1]) != 40 {
			t.Errorf("bar width %d, want 40: %q", len(fields[1]), fields[1])
		}
	}
	if bars == 0 {
		t.Fatalf("no bars found:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	p := bench.ByName("knucleotide")
	if _, err := Run(p, VMPycket, Options{}); err == nil {
		t.Errorf("expected error for missing scheme source")
	}
	if _, err := Run(p, VMC, Options{}); err == nil {
		t.Errorf("expected error for missing static kernel")
	}
	// An unknown kind is refused before a machine is built or a live run
	// is registered.
	lt := NewLiveTracker(1)
	if _, err := Run(p, VMKind("nonesuch"), Options{Live: lt}); err == nil {
		t.Errorf("expected error for unknown VM")
	}
	if st := lt.Status(); len(st) != 0 {
		t.Errorf("a refused VM kind registered a live run: %+v", st)
	}

	// A static kernel has no annotation stream: asking for a profile, a
	// recording or a replay is refused (-profile used to exit 0 and write
	// nothing), while the sinks the worker attaches to every run stay
	// legal — they just hear nothing.
	nbody := bench.ByName("nbody")
	for _, opt := range []Options{{Profile: true}, {ProfileDir: t.TempDir()}, {Record: true}, {RecordDir: t.TempDir()}, {ReplayAlloc: true}} {
		if _, err := Run(nbody, VMC, opt); err == nil || !strings.Contains(err.Error(), "unsupported for c") {
			t.Errorf("Run(nbody, c, %+v) = %v, want an unsupported-for-c refusal", opt, err)
		}
	}
	rec := reqtrace.NewRecorder(reqtrace.Config{Process: "harness-test"})
	sp := rec.StartTrace(reqtrace.Context{}, reqtrace.KindSimulate, "nbody/c")
	if _, err := Run(nbody, VMC, Options{Live: lt, ReqTrace: sp}); err != nil {
		t.Errorf("a watched static kernel failed: %v", err)
	}
}

func TestSecondsAndFractions(t *testing.T) {
	r := mustRun(t, bench.ByName("telco"), VMCPython, Options{})
	if r.Seconds() <= 0 {
		t.Errorf("Seconds = %f", r.Seconds())
	}
	if r.Checksum == 0 {
		t.Errorf("checksum zero")
	}
}
