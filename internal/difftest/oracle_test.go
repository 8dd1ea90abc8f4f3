package difftest

import (
	"encoding/binary"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"metajit/internal/mtjit"
	"metajit/internal/pylang"
)

// seedBytes encodes a corpus index as the decider input, so the corpus
// is deterministic and individual failures reproduce by index.
func seedBytes(i uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], i)
	return b[:]
}

// runCorpus runs the oracle over the programs gen makes for seeds
// 0..n-1 on GOMAXPROCS workers — the runs share nothing (DESIGN.md §8) —
// and returns each seed's outcomes in seed order. Workers take seeds in
// order and stop taking them after a failure, so every seed below a
// failing one has run: the lowest failing seed fails the test, with its
// program, as a serial walk would report it.
func runCorpus(t *testing.T, n int, scheme bool, gen func(seed uint64) string) [][]*Outcome {
	t.Helper()
	type run struct {
		src  string
		outs []*Outcome
		err  error
	}
	runs := make([]run, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				src := gen(uint64(i))
				outs, err := RunMatrix(src, scheme)
				runs[i] = run{src, outs, err}
				if err != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	all := make([][]*Outcome, n)
	for i, r := range runs {
		if r.err != nil {
			t.Fatalf("seed %d: %v\nprogram:\n%s", i, r.err, r.src)
		}
		all[i] = r.outs
	}
	return all
}

// TestPylangCorpus cross-checks seeded random pylang programs under the
// full configuration matrix.
func TestPylangCorpus(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 50
	}
	jitEngaged, tierEngaged := 0, 0
	for _, outs := range runCorpus(t, n, false, func(seed uint64) string { return GenPylang(seedBytes(seed)) }) {
		jit, tier := false, false
		for _, o := range outs {
			jit = jit || o.Stats.LoopsCompiled > 0
			tier = tier || o.Stats.BaselinesCompiled > 0
		}
		if jit {
			jitEngaged++
		}
		if tier {
			tierEngaged++
		}
	}
	// The generator exists to exercise the JIT; if programs stopped
	// compiling traces (or tier-1 code) the corpus silently stopped
	// testing anything.
	if jitEngaged < n*9/10 {
		t.Errorf("only %d/%d programs compiled any trace", jitEngaged, n)
	}
	if tierEngaged < n*9/10 {
		t.Errorf("only %d/%d programs compiled any baseline code", tierEngaged, n)
	}
}

// TestSklangCorpus cross-checks seeded random sklang programs under the
// full configuration matrix.
func TestSklangCorpus(t *testing.T) {
	n := 150
	if testing.Short() {
		n = 25
	}
	jitEngaged := 0
	for _, outs := range runCorpus(t, n, true, func(seed uint64) string { return GenSklang(seedBytes(seed | 1<<32)) }) {
		for _, o := range outs {
			if o.Stats.LoopsCompiled > 0 {
				jitEngaged++
				break
			}
		}
	}
	if jitEngaged < n*9/10 {
		t.Errorf("only %d/%d programs compiled any trace", jitEngaged, n)
	}
}

// TestMatrixShape pins the matrix: ablation cells must cover every
// optimizer pass exactly once, all cells must carry distinct names, and
// each name must match the tiers its cell's engine really has.
func TestMatrixShape(t *testing.T) {
	m := Matrix()
	names := map[string]bool{}
	for _, c := range m {
		if names[c.Name] {
			t.Fatalf("duplicate cell name %q", c.Name)
		}
		names[c.Name] = true
	}
	for _, want := range []string{
		"interp", "jit-default", "jit-hot",
		"jit-hot-no-fold", "jit-hot-no-guards", "jit-hot-no-cse",
		"jit-hot-no-virtuals", "jit-hot-no-dce", "jit-tinytrace",
		"tier1-only", "tiered-hot", "tiered-promote",
		"method-only", "amalg-hot", "amalg-promote", "adaptive-hot",
	} {
		if !names[want] {
			t.Errorf("matrix is missing cell %q", want)
		}
	}
	if len(m) < 16 {
		t.Errorf("matrix has %d cells, want >= 16", len(m))
	}
	// A tier is in a cell when the kind enables it and its threshold is
	// within reach of an oracle program.
	reach := func(threshold int) bool { return threshold > 0 && threshold < unreachable/2 }
	for i, c := range m {
		var eng *mtjit.Engine
		probe := c
		probe.Opt.Guest = func(vm *pylang.VM) {
			if c.Opt.Guest != nil {
				c.Opt.Guest(vm)
			}
			eng = vm.Eng
		}
		if _, err := RunCell("def main():\n    return 0\n", false, probe); err != nil {
			t.Fatal(err)
		}
		if (i == 0) != (eng == nil) {
			t.Errorf("cell %q: the first cell, and only it, must be the plain interpreter (the reference)", c.Name)
		}
		if eng == nil {
			continue
		}
		// The documented naming scheme (package comment) is enforced:
		// tier prefixes match the tiers the cell actually enables.
		hasTier1 := strings.HasPrefix(c.Name, "tier1-") || strings.HasPrefix(c.Name, "tiered-") ||
			strings.HasPrefix(c.Name, "amalg-") || strings.HasPrefix(c.Name, "adaptive-")
		if hasTier1 != reach(eng.BaselineThreshold) {
			t.Errorf("cell %q: name/tier mismatch (baseline threshold %d)", c.Name, eng.BaselineThreshold)
		}
		hasMethod := strings.HasPrefix(c.Name, "method-") || strings.HasPrefix(c.Name, "amalg-") ||
			strings.HasPrefix(c.Name, "adaptive-")
		if hasMethod != reach(eng.MethodThreshold) {
			t.Errorf("cell %q: name/tier mismatch (method threshold %d)", c.Name, eng.MethodThreshold)
		}
		if strings.HasPrefix(c.Name, "adaptive-") != eng.Adaptive {
			t.Errorf("cell %q: name/controller mismatch (Adaptive=%v)", c.Name, eng.Adaptive)
		}
		lower := strings.HasPrefix(c.Name, "tier1-") || strings.HasPrefix(c.Name, "method-")
		if lower && reach(eng.Threshold) {
			t.Errorf("cell %q: lower-tier-only cells must keep tracing out of reach (threshold %d)",
				c.Name, eng.Threshold)
		}
		if eng.BaselineThreshold > 0 && c.Opt.BaselineThreshold == 0 {
			t.Errorf("cell %q: tier cells must pin BaselineThreshold explicitly", c.Name)
		}
		if eng.MethodThreshold > 0 && c.Opt.MethodThreshold == 0 {
			t.Errorf("cell %q: method cells must pin MethodThreshold explicitly", c.Name)
		}
	}
}
