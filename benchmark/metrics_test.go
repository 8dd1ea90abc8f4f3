package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricTables(t *testing.T) {
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q outside the allowed characters", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q outside the allowed characters", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("%s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	var setup bool
	for _, d := range endToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for _, d := range perLayer {
		check(d)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics: over the limits", len(endToEnd), len(perLayer))
	}
	for _, w := range workloadDefs {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %q: bad name, or why of %d characters", w.Name, len(w.Why))
		}
		seen[w.Name] = true
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is listed but cannot be run", w.Name)
		}
	}
	if len(workloadDefs) != len(workloads) {
		t.Errorf("%d workloads listed, %d runnable", len(workloadDefs), len(workloads))
	}
}

// BENCHMARK.json at the root is what -spec prints: the names the runner
// emits and the names the driver expects cannot drift apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed, generated any
	if err := json.Unmarshal(blob, &committed); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(specJSON()), &generated); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(committed)
	b, _ := json.Marshal(generated)
	if string(a) != string(b) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -spec`; regenerate it")
	}
}
