package jitlog_test

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"metajit/internal/bench"
	"metajit/internal/harness"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestDumpGolden pins the PyPy-log style dump of richards under the
// tracing JIT — what `mtjit -bench richards -vm pypy -jitlog` prints after
// the "---- jit log ----" line — byte for byte. Its `[count] op` lines are
// derived execution counts (Trace.OpExecs), so the golden, recorded from
// the executor that still counted every op, holds the derivation to the
// counted truth on a real workload with bridges and deoptimizations.
func TestDumpGolden(t *testing.T) {
	var dump bytes.Buffer
	if _, err := harness.Run(bench.ByName("richards"), harness.VMPyPyJIT, harness.Options{JITLog: &dump}); err != nil {
		t.Fatal(err)
	}
	got := dump.String()
	const path = "testdata/richards_pypy.jitlog"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("jit log of richards/pypy differs from %s (go test ./internal/jitlog -update rewrites it):\n%s", path, got)
	}
}
