package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestQuantile(t *testing.T) {
	s := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("median of 1, 2 = %v, want 1.5", got)
	}
	if s[0] != 4 {
		t.Error("quantile sorted its argument in place")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "peak_rss_mb", Better: "lower", Bound: 0.25}
	higher := metricDef{Name: "rps", Better: "higher", Bound: 0.25}
	ref := []float64{33, 34, 33.5, 34.2, 33.8, 33.2, 34.4, 33.9, 33.6, 34}
	var lowerRuns, worseRuns, sameRuns []float64
	for i, v := range ref {
		lowerRuns = append(lowerRuns, v-8)
		worseRuns = append(worseRuns, 1.3*v)
		sameRuns = append(sameRuns, v+[]float64{-0.2, 0.2}[i%2])
	}
	for _, c := range []struct {
		d        metricDef
		ref, cur []float64
		want     string
	}{
		{lower, ref, lowerRuns, "better (claimable)"},
		{lower, ref, worseRuns, "WORSE than the bound"},
		{lower, ref, sameRuns, "within bound"},
		{higher, ref, worseRuns, "better (claimable)"},
		{higher, ref, lowerRuns, "within bound"},
		{lower, []float64{1, 10, 1, 10}, []float64{1, 10, 1, 10}, "within bound (reference spread exceeds the bound)"},
	} {
		if got := verdict(c.d, c.ref, c.cur); got != c.want {
			t.Errorf("%s (%s): %q, want %q", c.d.Name, c.d.Better, got, c.want)
		}
	}
	// Eight pairs of ten are not enough to claim, however large the gain.
	mixed := append([]float64(nil), lowerRuns...)
	mixed[0], mixed[1] = ref[0]+1, ref[1]+1
	if got := verdict(lower, ref, mixed); got != "within bound" {
		t.Errorf("a gain in 8 of 10 pairs: %q", got)
	}
}

func TestReport(t *testing.T) {
	out := func(fp string, failed int, rss float64) run {
		r, err := parseRun(strings.NewReader(fmt.Sprintf("peak_rss_mb %g MB\n# fingerprint %s\n"+
			`{"correct":true,"attempted":10,"failed":%d,"metrics":{"peak_rss_mb":{"value":%g,"unit":"MB"}}}`+"\n", rss, fp, failed, rss)))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	defs := []metricDef{{Name: "peak_rss_mb", Better: "lower", Bound: 0.25}}
	var w bytes.Buffer
	if bad := report(&w, "jit_sweep", defs, []run{out("a", 0, 34), out("a", 0, 33)}, []run{out("a", 0, 26), out("a", 0, 25)}); bad {
		t.Errorf("a clean comparison reported a problem:\n%s", w.String())
	}
	if !strings.Contains(w.String(), "34/26 33/25") || !strings.Contains(w.String(), "2/2") {
		t.Errorf("report lacks the pairs or the win count:\n%s", w.String())
	}
	w.Reset()
	if !report(&w, "jit_sweep", defs, []run{out("a", 0, 34)}, []run{out("b", 1, 34)}) {
		t.Errorf("a failed run and a differing fingerprint went unreported:\n%s", w.String())
	}
}
