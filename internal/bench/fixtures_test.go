package bench_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"metajit/internal/bench"
	"metajit/internal/harness"
	"metajit/internal/heap"
	"metajit/internal/trace"
)

var update = flag.Bool("update", false, "re-record the trace fixtures under testdata/traces/")

// The committed trace fixtures. Each is a recorded workload checked
// into testdata/traces and loaded as a suite member by LoadTraceDir;
// `go test ./internal/bench -run TestTraceFixtures -update` re-records
// them (only needed when the simulator's instruction accounting or the
// trace format changes — bump trace.FormatVersion in the latter case).
var fixtureDefs = []struct {
	name   string
	kind   harness.VMKind
	source string // pylang unless sk is set
	sk     bool
	opt    harness.Options
}{
	// dense_alloc: allocation-bound workload — every iteration allocates
	// a fresh row, a string, and rotates survivors through a ring, so the
	// nursery turns over constantly and the small heap forces majors.
	{
		name: "dense_alloc",
		kind: harness.VMPyPyJIT,
		opt: harness.Options{
			HeapConfig: &heap.Config{NurserySize: 8 << 10, MajorThreshold: 48 << 10, MajorGrowth: 1.82},
		},
		source: srcDenseAlloc,
	},
	// tenant_mix: bursty multi-tenant mix — three scaled-down suite
	// kernels (telco-style call rating, binary-tree churn, string
	// concatenation) interleaved in rounds, so the recorded stream
	// alternates allocation demography and JIT phase behavior the way a
	// shared VM serving unrelated tenants would.
	{
		name:   "tenant_mix",
		kind:   harness.VMPyPyTiered,
		source: srcTenantMix,
	},
	// telco_small: a scaled-down single-benchmark recording on the
	// two-tier configuration, the smallest realistic fixture.
	{
		name:   "telco_small",
		kind:   harness.VMPyPyTiered,
		source: srcTelcoSmall,
	},
	// sk_trees: the Scheme guest on the framework (Pycket analog),
	// recursive tree construction with a long-lived survivor.
	{
		name:   "sk_trees",
		kind:   harness.VMPycket,
		sk:     true,
		source: skTrees,
	},
}

const srcDenseAlloc = `
def main():
    keep = []
    i = 0
    while i < 64:
        keep.append(0)
        i = i + 1
    seed = 7
    total = 0
    for n in range(4000):
        seed = (seed * 1103515245 + 12345) % 2147483648
        row = [seed % 100, seed % 97, seed % 89, n]
        keep[n % 64] = row
        s = str(seed)
        total = (total + row[0] + len(s)) % 1000000007
    for r in keep:
        total = (total + r[0] + r[3]) % 1000000007
    return total
`

const srcTenantMix = `
def tenant_calls(n, seed):
    calls = []
    for i in range(n):
        seed = (seed * 1103515245 + 12345) % 2147483648
        calls.append(str(seed % 86400))
    total = 0
    for c in calls:
        dur = int(c)
        if dur % 2 == 0:
            total += dur * 13
        else:
            total += dur * 31
    return total

def tenant_tree(depth):
    if depth == 0:
        return [0, 0, 0]
    return [depth, tenant_tree(depth - 1), tenant_tree(depth - 1)]

def check(node):
    if node[0] == 0:
        return 1
    return 1 + check(node[1]) + check(node[2])

def tenant_text(n, seed):
    parts = []
    for i in range(n):
        seed = (seed * 69069 + 1) % 2147483648
        parts.append(str(seed % 1000))
    s = ""
    for p in parts:
        s = s + p
    return len(s)

def main():
    total = 0
    for r in range(6):
        total = (total + tenant_calls(300, 42 + r)) % 1000000007
        t = tenant_tree(6)
        total = (total + check(t)) % 1000000007
        total = (total + tenant_text(120, 7 + r)) % 1000000007
    return total
`

const srcTelcoSmall = `
def make_calls(n):
    calls = []
    seed = 42
    for i in range(n):
        seed = (seed * 1103515245 + 12345) % 2147483648
        calls.append(str(seed % 86400))
    return calls

def main():
    calls = make_calls(800)
    total = 0
    for c in calls:
        dur = int(c)
        if dur % 2 == 0:
            total += dur * 13
        else:
            total += dur * 31
    return total % 1000000007
`

const skTrees = `
(define (make-tree depth)
  (if (= depth 0)
      (vector 1 0 0)
      (vector 1 (make-tree (- depth 1)) (make-tree (- depth 1)))))

(define (check-tree node)
  (if (= (vector-ref node 1) 0)
      1
      (+ 1 (check-tree (vector-ref node 1)) (check-tree (vector-ref node 2)))))

(define (churn n acc)
  (if (= n 0)
      acc
      (churn (- n 1) (+ acc (check-tree (make-tree 5))))))

(define (main)
  (let ((long-lived (make-tree 8)))
    (modulo (+ (churn 40 0) (check-tree long-lived)) 1000000007)))
`

const fixtureDir = "testdata/traces"

// TestTraceFixtures records (with -update) or verifies the committed
// fixtures. Verification is the full replay contract: each fixture file
// decodes, its content hash is stable, and replaying it under the
// configuration sealed in its header reproduces the recorded Summary
// bit-for-bit with a byte-identical event stream.
func TestTraceFixtures(t *testing.T) {
	if *update {
		recordFixtures(t)
	}
	progs, err := bench.LoadTraceDir(fixtureDir)
	if err != nil {
		t.Fatalf("loading fixtures: %v (run with -update to record them)", err)
	}
	if len(progs) < 3 {
		t.Fatalf("only %d committed fixtures, want >= 3", len(progs))
	}
	for i := range progs {
		p := &progs[i]
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			tr := p.Trace
			if !p.IsTrace() || p.Suite != bench.SuiteTrace {
				t.Fatal("fixture did not load as a trace benchmark")
			}
			if got := tr.Hash(); p.TraceHash != got || !strings.Contains(p.Name, got[:8]) {
				t.Fatalf("trace identity mismatch: name %q hash %s", p.Name, got)
			}
			ropt := harness.ReplayOptions(tr)
			ropt.Record = true
			r, err := harness.Run(p, harness.VMKind(tr.Header.VM), ropt)
			if err != nil {
				t.Fatal(err)
			}
			if err := trace.CheckReplay(tr, r.Trace); err != nil {
				t.Fatalf("replay diverged from the fixture: %v", err)
			}
			// The snapshot is what today's recorder writes for the
			// configuration the replay resolved: a fixture recorded
			// before a default moved into the snapshot needs -update.
			if got := r.Trace.Header.Config; got != tr.Header.Config {
				t.Fatalf("replay recorded config %+v, the fixture holds %+v (re-record with make traces)", got, tr.Header.Config)
			}
		})
	}
}

// TestFixtureGCEngages pins the fixtures' reason to exist: the dense
// allocation fixture must drive both generations, and every fixture
// must record a non-trivial event stream.
func TestFixtureGCEngages(t *testing.T) {
	progs, err := bench.LoadTraceDir(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range progs {
		p := &progs[i]
		if p.Trace.Summary.Events < 100 {
			t.Errorf("%s: only %d events recorded", p.Name, p.Trace.Summary.Events)
		}
		if strings.HasPrefix(p.Name, "dense_alloc") {
			if gc := p.Trace.Summary.GC; gc.Minor == 0 || gc.Major == 0 {
				t.Errorf("dense_alloc fixture drove %d minor / %d major collections, want both > 0", gc.Minor, gc.Major)
			}
		}
	}
}

func recordFixtures(t *testing.T) {
	old, err := filepath.Glob(filepath.Join(fixtureDir, "*"+trace.FileExt))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range old {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}
	for _, def := range fixtureDefs {
		p := bench.Program{Name: def.name, Suite: bench.SuiteTrace}
		if def.sk {
			p.SkSource = def.source
		} else {
			p.Source = def.source
		}
		opt := def.opt
		opt.RecordDir = fixtureDir
		r, err := harness.Run(&p, def.kind, opt)
		if err != nil {
			t.Fatalf("recording %s: %v", def.name, err)
		}
		t.Logf("recorded %s: %d events, %d bytes, checksum %d",
			trace.FileName(p.Name, string(def.kind)), r.Trace.Summary.Events, len(r.Trace.Encode()), r.Checksum)
	}
}
