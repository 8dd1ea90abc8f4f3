package main

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"metajit/internal/bench"
	"metajit/internal/harness"
)

// The seed orders cells; it never chooses them.
func TestSeedOnlyReorders(t *testing.T) {
	n := len(jitCells())
	a := order(rand.New(rand.NewSource(7)), n)
	b := order(rand.New(rand.NewSource(7)), n)
	c := order(rand.New(rand.NewSource(8)), n)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different order")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same order")
	}
	sort.Ints(a)
	sort.Ints(c)
	if !reflect.DeepEqual(a, c) {
		t.Error("different seeds, different cell sets")
	}
}

// A memo-phase client's request stream is a function of the seed and the
// client, and stays inside the universe.
func TestRequestStream(t *testing.T) {
	draw := func(seed int64, client int) []int {
		next := requestStream(seed, client, 42)
		out := make([]int, 200)
		for i := range out {
			out[i] = next()
		}
		return out
	}
	a := draw(3, 0)
	if !reflect.DeepEqual(a, draw(3, 0)) {
		t.Error("same seed and client, different requests")
	}
	if reflect.DeepEqual(a, draw(4, 0)) || reflect.DeepEqual(a, draw(3, 1)) {
		t.Error("another seed or client drew the same requests")
	}
	hits := map[int]int{}
	for _, c := range a {
		if c < 0 || c >= 42 {
			t.Fatalf("request for cell %d outside the universe", c)
		}
		hits[c]++
	}
	hot := requestStream(3, 1, 42) // the hottest cell is the same for both clients
	other := map[int]int{}
	for i := 0; i < 200; i++ {
		other[hot()]++
	}
	top := func(m map[int]int) (best int) {
		for c, n := range m {
			if n > m[best] {
				best = c
			}
		}
		return best
	}
	if top(hits) != top(other) {
		t.Error("clients of one seed disagree on the hottest cell")
	}
}

func TestCellSets(t *testing.T) {
	exp, err := loadExpectationsFrom("expected/checksums.json")
	if err != nil {
		t.Fatal(err)
	}
	for name, cells := range map[string][]cell{
		"interp": interpCells(), "jit": jitCells(), "serve": serveCells(), "observer": observerCells(),
	} {
		seen := map[string]bool{}
		for _, c := range cells {
			if c.prog == nil {
				t.Fatalf("%s: unknown benchmark in cell set", name)
			}
			if seen[c.id()] {
				t.Errorf("%s: %s twice", name, c.id())
			}
			seen[c.id()] = true
			if _, ok := exp[c.guest()][c.prog.Name]; !ok {
				t.Errorf("%s: no expected checksum for %s", name, c.id())
			}
		}
	}
	for _, c := range interpCells() {
		switch c.kind {
		case harness.VMCPython, harness.VMPyPyNoJIT, harness.VMRacket, harness.VMC:
		default:
			t.Errorf("interp_sweep runs %s: a JIT kind", c.id())
		}
	}
}

// A wrong expected checksum is a failed operation, and the fingerprint of
// the simulated statistics does not depend on the order cells ran in.
func TestOracleAndFingerprint(t *testing.T) {
	exp, err := loadExpectationsFrom("expected/checksums.json")
	if err != nil {
		t.Fatal(err)
	}
	cells := []cell{
		{bench.ByName("telco"), harness.VMPyPyJIT},
		{bench.ByName("fasta"), harness.VMPycket},
		{bench.ByName("fasta"), harness.VMC},
	}
	var forward, backward simStats
	results := make([]*harness.Result, len(cells))
	for i, c := range cells {
		res, err := harness.Run(c.prog, c.kind, harness.Options{})
		if why := exp.check(c, res, err); why != "" {
			t.Fatal(why)
		}
		results[i] = res
		forward.add(c.id(), res)
	}
	for i := len(cells) - 1; i >= 0; i-- {
		backward.add(cells[i].id(), results[i])
	}
	if forward.fingerprint() != backward.fingerprint() {
		t.Error("fingerprint depends on cell order")
	}
	again, err := harness.Run(cells[0].prog, cells[0].kind, harness.Options{})
	if err != nil || cellLine("", again) != cellLine("", results[0]) {
		t.Error("two runs of one cell differ in simulated statistics")
	}

	exp["py"]["telco"]++
	if why := exp.check(cells[0], results[0], nil); why == "" {
		t.Error("corrupted expected checksum was not reported")
	}
}

func TestCalibratorScale(t *testing.T) {
	t0 := time.Unix(1000, 0)
	c := &calibrator{}
	for i, ns := range []float64{10, 20, 30, 40, 50, 60} { // a slice every 10 s
		c.at = append(c.at, t0.Add(time.Duration(i)*10*time.Second))
		c.ns = append(c.ns, ns*refNominalNs)
	}
	// Nothing within the window of t=25s: the three nearest are 20, 30
	// and either neighbour; the mean of 20,30,40 or 10,20,30.
	got := c.scale(t0.Add(25*time.Second), t0.Add(25*time.Second))
	if got != 1.0/30 && got != 1.0/20 {
		t.Errorf("scale from nearest slices = %v", got)
	}
	// An interval that covers slices uses them all.
	if got := c.scale(t0, t0.Add(50*time.Second)); got != 1.0/35 {
		t.Errorf("scale over the whole run = %v, want 1/35", got)
	}
	if got := (&calibrator{}).scale(t0, t0); got != 1 {
		t.Errorf("scale without slices = %v, want 1", got)
	}
}
