package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
)

// agreeRuns is how many runs make one side of the comparison: the machine's
// slow periods put single runs a fifth apart, medians of three much less.
const agreeRuns = 3

// runAgree runs every workload in two sets of agreeRuns child processes,
// every run with another seed, and prints each end-to-end metric's median
// in set A and set B with their relative difference and the metric's bound.
// It returns the exit code: 1 if a metric differs by more than its bound, a
// fingerprint differs (the seed only reorders, so the simulated statistics
// must agree exactly), or an output check failed.
func runAgree(seconds float64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	code := 0
	fmt.Printf("%-13s %-28s %14s %14s %8s %6s\n", "workload", "metric", "seeds 1-3", "seeds 4-6", "diff", "bound")
	for _, w := range workloadDefs {
		var sets [2]map[string][]float64
		prints := map[string]bool{}
		for set := range sets {
			sets[set] = map[string][]float64{}
			for k := 0; k < agreeRuns; k++ {
				seed := set*agreeRuns + k + 1
				r, print, err := runChild(self, w.Name, seed, seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", w.Name, seed, err)
					return 2
				}
				if !r.Correct {
					fmt.Printf("%-13s seed %d: %d of %d operations failed\n", w.Name, seed, r.Failed, r.Attempted)
					code = 1
				}
				prints[print] = true
				for name, v := range r.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
			}
		}
		for _, d := range endToEnd {
			a, b := median(sets[0][d.Name]), median(sets[1][d.Name])
			diff := math.Abs(a-b) / math.Min(a, b)
			verdict := ""
			if diff > d.Bound {
				verdict = "  DISAGREE"
				code = 1
			}
			fmt.Printf("%-13s %-28s %14.6g %14.6g %7.1f%% %5.0f%%%s\n", w.Name, d.Name, a, b, diff*100, d.Bound*100, verdict)
		}
		if len(prints) != 1 || prints[""] {
			fmt.Printf("%-13s fingerprints differ between seeds: %v\n", w.Name, prints)
			code = 1
		}
		for p := range prints {
			fmt.Printf("%-13s %s\n", w.Name, strings.TrimPrefix(p, "# fingerprint "+w.Name+" "))
		}
	}
	return code
}

// runChild runs one workload once in a child process and returns its result
// and its fingerprint line.
func runChild(self, workload string, seed int, seconds float64) (result, string, error) {
	var r result
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return r, "", err
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	var last, print string
	for sc.Scan() {
		last = sc.Text()
		if strings.HasPrefix(last, "# fingerprint ") {
			print = last
		}
	}
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, "", fmt.Errorf("last line: %w", err)
	}
	return r, print, nil
}
