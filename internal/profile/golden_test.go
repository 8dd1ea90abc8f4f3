package profile_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"metajit/internal/bench"
	"metajit/internal/harness"
	"metajit/internal/heap"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenProgram is a small fixed guest that exercises the span kinds of
// interest — tier-1 compilation and residency, tracing, trace
// execution, a deopt, and allocation-triggered GC — while staying small
// enough that the full Chrome trace is golden-testable.
const goldenSource = `
def main():
    xs = [0, 0, 0, 0]
    acc = 0
    i = 0
    while i < 120:
        j = 0
        while j < 20:
            xs[j % 4] = xs[j % 4] + i
            j = j + 1
        if i == 90:
            acc = acc + len(str(i))
        acc = (acc + xs[i % 4]) % 100003
        i = i + 1
    return acc
`

// runGolden executes the golden program under the two-tier VM with a
// tiny heap and aggressive thresholds, writing profile artifacts to
// dir. Everything in the simulator is deterministic, so the artifacts
// are byte-stable.
func runGolden(t *testing.T, dir string) *harness.Result {
	t.Helper()
	prog := &bench.Program{Name: "profgold", Source: goldenSource}
	res, err := harness.Run(prog, harness.VMPyPyTiered, harness.Options{
		Threshold:         5,
		BridgeThreshold:   2,
		BaselineThreshold: 2,
		ProfileDir:        dir,
		ProfileWindow:     5000,
		HeapConfig: &heap.Config{
			NurserySize:    4 << 10,
			MajorThreshold: 16 << 10,
			MajorGrowth:    1.82,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Profile.Err(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestProfileGoldens pins all three profile exports — the Chrome
// trace-event JSON, the folded flamegraph stacks, and the interval
// series — byte-for-byte against checked-in goldens, so any drift in
// attribution, labeling, or formatting is caught before it silently
// changes published profiles. Regenerate with:
//
//	go test ./internal/profile -run TestProfileGoldens -update
func TestProfileGoldens(t *testing.T) {
	dir := t.TempDir()
	res := runGolden(t, dir)
	for _, path := range harness.ProfileArtifacts(dir, res.Bench, res.VM) {
		name := filepath.Base(path)
		t.Run(name, func(t *testing.T) {
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 {
				t.Fatal("artifact is empty")
			}
			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if string(got) != string(want) {
				t.Errorf("%s drifted from golden (rerun with -update if intended):\n--- golden (%d bytes)\n--- got (%d bytes)\n%s",
					name, len(want), len(got), clip(got))
			}
		})
	}
}

func clip(b []byte) string {
	const max = 4096
	if len(b) <= max {
		return string(b)
	}
	return string(b[:max]) + "\n... (truncated)"
}
