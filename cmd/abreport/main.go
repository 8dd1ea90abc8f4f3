// Command abreport compares two builds of the repository benchmark from
// alternated runs: for every workload and every end-to-end metric of
// BENCHMARK.json it prints each side's median and quartiles, in how many
// pairs the change was better, and a verdict against the metric's bound.
// scripts/ab.sh (make ab) makes the runs and calls it.
//
// Usage:
//
//	abreport [-spec BENCHMARK.json] DIR
//
// DIR holds one directory per workload, and in each the standard output
// of run i of the reference as ref-<i>.txt and of the change as
// new-<i>.txt. The last line of each is the benchmark's JSON result.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef is one end-to-end metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// run is what one benchmark run printed.
type run struct {
	Failed      int                                `json:"failed"`
	Metrics     map[string]struct{ Value float64 } `json:"metrics"`
	fingerprint string
}

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "the benchmark declaration whose end-to-end metrics and bounds to use")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: abreport [-spec BENCHMARK.json] DIR")
		os.Exit(2)
	}
	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	blob, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(blob, &spec)
	}
	if err != nil {
		fatal(err)
	}
	dirs, err := filepath.Glob(filepath.Join(flag.Arg(0), "*"))
	if err != nil {
		fatal(err)
	}
	bad := false
	for _, dir := range dirs {
		ref, err := loadSide(dir, "ref")
		var cur []run
		if err == nil {
			cur, err = loadSide(dir, "new")
		}
		if err != nil {
			fatal(err)
		}
		bad = report(os.Stdout, filepath.Base(dir), spec.EndToEnd, ref, cur) || bad
	}
	if bad {
		os.Exit(1)
	}
}

// loadSide reads side-1.txt, side-2.txt, … from dir until one is missing.
func loadSide(dir, side string) ([]run, error) {
	var runs []run
	for i := 1; ; i++ {
		f, err := os.Open(filepath.Join(dir, fmt.Sprintf("%s-%d.txt", side, i)))
		if os.IsNotExist(err) && i > 1 {
			return runs, nil
		}
		if err != nil {
			return nil, err
		}
		r, err := parseRun(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %s-%d.txt: %w", dir, side, i, err)
		}
		runs = append(runs, r)
	}
}

// parseRun reads one run's standard output: the fingerprint line and the
// JSON result on the last line.
func parseRun(r io.Reader) (run, error) {
	var out run
	var last string
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if fp, ok := strings.CutPrefix(line, "# fingerprint "); ok {
			out.fingerprint = fp
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		return out, fmt.Errorf("last line is not the result: %w", err)
	}
	return out, nil
}

// quantile interpolates linearly between the order statistics of s.
func quantile(s []float64, q float64) float64 {
	s = append([]float64(nil), s...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// wins counts the pairs in which the change is better than the reference.
func wins(d metricDef, ref, cur []float64) int {
	k := 0
	for i := range min(len(ref), len(cur)) {
		if d.Better == "higher" && cur[i] > ref[i] || d.Better != "higher" && cur[i] < ref[i] {
			k++
		}
	}
	return k
}

// verdict judges one metric over alternated pairs. worse: the change's
// median is worse than the reference's by more than the bound. better: the
// change is better in at least nine pairs of ten and its median beats the
// reference's by more than the reference's interquartile range, a gain
// that can be claimed. A reference whose own interquartile range is wider
// than the bound cannot tell a move of that size, and the verdict says so.
func verdict(d metricDef, ref, cur []float64) string {
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	rm, cm := quantile(ref, 0.5), quantile(cur, 0.5)
	iqr := quantile(ref, 0.75) - quantile(ref, 0.25)
	n := min(len(ref), len(cur))
	switch {
	case rm != 0 && sign*(cm-rm)/math.Abs(rm) > d.Bound:
		return "WORSE than the bound"
	case n > 0 && 10*wins(d, ref, cur) >= 9*n && sign*(rm-cm) > iqr:
		return "better (claimable)"
	case rm != 0 && iqr/math.Abs(rm) > d.Bound:
		return "within bound (reference spread exceeds the bound)"
	}
	return "within bound"
}

// report prints one workload's comparison, every pair's values included,
// and says whether a metric is worse than its bound, a run failed, or the
// fingerprints differ.
func report(w io.Writer, name string, defs []metricDef, ref, cur []run) bool {
	n := min(len(ref), len(cur))
	fmt.Fprintf(w, "%s: %d pairs (reference/change per pair in brackets)\n", name, n)
	bad := false
	prints := map[string]bool{}
	for i := range n {
		for _, r := range []struct {
			side string
			run
		}{{"reference", ref[i]}, {"change", cur[i]}} {
			prints[r.fingerprint] = true
			if r.Failed != 0 {
				fmt.Fprintf(w, "  %s run %d: %d failed\n", r.side, i+1, r.Failed)
				bad = true
			}
		}
	}
	if len(prints) != 1 {
		fmt.Fprintf(w, "  fingerprints differ:\n")
		for p := range prints {
			fmt.Fprintf(w, "    %s\n", p)
		}
		bad = true
	} else {
		for p := range prints {
			fmt.Fprintf(w, "  every run: fingerprint %s\n", p)
		}
	}
	fmt.Fprintf(w, "  %-28s %-30s %-30s %7s %7s  %s\n", "metric", "reference median [q1 q3]", "change median [q1 q3]", "delta", "better", "verdict")
	for _, d := range defs {
		var rv, cv []float64
		pairs := make([]string, n)
		for i := range n {
			rv = append(rv, ref[i].Metrics[d.Name].Value)
			cv = append(cv, cur[i].Metrics[d.Name].Value)
			pairs[i] = fmt.Sprintf("%.4g/%.4g", rv[i], cv[i])
		}
		rm, cm := quantile(rv, 0.5), quantile(cv, 0.5)
		delta := 0.0
		if rm != 0 {
			delta = 100 * (cm - rm) / math.Abs(rm)
		}
		v := verdict(d, rv, cv)
		bad = bad || strings.HasPrefix(v, "WORSE")
		fmt.Fprintf(w, "  %-28s %-30s %-30s %+6.1f%% %3d/%-3d  %s\n", d.Name,
			fmt.Sprintf("%.4g [%.4g %.4g]", rm, quantile(rv, 0.25), quantile(rv, 0.75)),
			fmt.Sprintf("%.4g [%.4g %.4g]", cm, quantile(cv, 0.25), quantile(cv, 0.75)),
			delta, wins(d, rv, cv), n, v)
		fmt.Fprintf(w, "  %-28s [%s]\n", "", strings.Join(pairs, " "))
	}
	return bad
}
