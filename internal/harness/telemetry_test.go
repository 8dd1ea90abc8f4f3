package harness

import (
	"fmt"
	"strings"
	"testing"

	"metajit/internal/bench"
	"metajit/internal/reqtrace"
	"metajit/internal/telemetry"
)

// scrapeStack returns every mtjit_*, heap_* and profile_* sample of the
// registry, keyed name{labels}.
func scrapeStack(t *testing.T, reg *telemetry.Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for name, f := range fams {
		for _, p := range []string{"mtjit_", "heap_", "profile_"} {
			if strings.HasPrefix(name, p) {
				for _, s := range f.Samples {
					out[s.Name+s.Labels] = s.Value
				}
			}
		}
	}
	return out
}

// addStack adds what one finished run should contribute, spelled out
// field by field from the Result (and, for a run that fed a request
// span, from a profiled run of the same cell: Result.Profile is nil
// there). Baseline promotions have no Result field; the caller bounds
// them.
func addStack(want map[string]float64, res *Result, prof *Result) {
	e, gc := res.EngStats, res.GC
	var spans, events, errs float64
	if prof != nil {
		spans, events, errs = float64(prof.Profile.Stream.Spans), float64(prof.Profile.Stream.Events), float64(prof.Profile.ErrorCount())
	}
	for k, v := range map[string]float64{
		`mtjit_traces_compiled_total{kind="loop"}`:               float64(e.LoopsCompiled),
		`mtjit_traces_compiled_total{kind="bridge"}`:             float64(e.BridgesCompiled),
		`mtjit_trace_aborts_total`:                               float64(e.Aborts),
		`mtjit_guard_failures_total`:                             float64(e.GuardFailures),
		`mtjit_invalidations_total{tier="trace"}`:                float64(e.Invalidated),
		`mtjit_invalidations_total{tier="baseline"}`:             float64(e.BaselineInvalidated),
		`mtjit_invalidations_total{tier="method"}`:               float64(e.MethodInvalidated),
		`mtjit_trace_ops_total{stage="recorded"}`:                float64(e.OpsRecorded),
		`mtjit_trace_ops_total{stage="removed"}`:                 float64(e.OpsRemoved),
		`mtjit_baseline_compiles_total`:                          float64(e.BaselinesCompiled),
		`mtjit_baseline_deopts_total`:                            float64(e.BaselineDeopts),
		`mtjit_method_compiles_total`:                            float64(e.MethodsCompiled),
		`mtjit_method_deopts_total`:                              float64(e.MethodDeopts),
		`mtjit_controller_decisions_total{kind="trace_backoff"}`: float64(e.CtlBackoffDecisions),
		`mtjit_controller_decisions_total{kind="trace_early"}`:   float64(e.CtlEarlyPromotions),
		`mtjit_controller_decisions_total{kind="method"}`:        float64(e.CtlMethodDecisions),
		`heap_gc_collections_total{gen="minor"}`:                 float64(gc.Minor),
		`heap_gc_collections_total{gen="major"}`:                 float64(gc.Major),
		`heap_gc_skipped_total`:                                  float64(gc.Skipped),
		`heap_promoted_bytes_total`:                              float64(gc.PromotedBytes),
		`profile_spans_total`:                                    spans,
		`profile_events_total`:                                   events,
		`profile_errors_total`:                                   errs,
	} {
		want[k] += v
	}
}

// TestStackTelemetryMatchesResults: every series of the stack is the sum,
// over the runs that finished, of the matching Result field — and only
// finished runs count: a memo hit, a refused run and a failed run add
// nothing. The cells between them move every family: baseline compiles
// and promotions (telco/pypy-tiered), method compiles and decisions
// (richards/pypy-amalg), backoff and early decisions (json_bench/
// pypy-adaptive), major collections (binarytrees/pypy) and the profiler
// (a run feeding a request span).
func TestStackTelemetryMatchesResults(t *testing.T) {
	telco := bench.ByName("telco")
	// The profiled reference runs before the registry exists.
	profiled, err := Run(telco, VMPyPyTiered, Options{Profile: true})
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	InstallTelemetry(reg)
	defer InstallTelemetry(nil)

	want := map[string]float64{}
	var promotionsMax float64
	for _, c := range []struct {
		bench string
		kind  VMKind
	}{
		{"telco", VMPyPyTiered},
		{"richards", VMPyPyAmalg},
		{"json_bench", VMPyPyAdaptive},
		{"binarytrees", VMPyPyJIT},
	} {
		res, err := Run(bench.ByName(c.bench), c.kind, Options{})
		if err != nil {
			t.Fatal(err)
		}
		addStack(want, res, nil)
		promotionsMax += float64(res.EngStats.BaselineInvalidated)
	}

	rec := reqtrace.NewRecorder(reqtrace.Config{Process: "harness-test"})
	sp := rec.StartTrace(reqtrace.Context{}, reqtrace.KindSimulate, "telco/pypy-tiered")
	res, err := Run(telco, VMPyPyTiered, Options{ReqTrace: sp})
	sp.End()
	if err != nil {
		t.Fatal(err)
	}
	addStack(want, res, profiled)
	promotionsMax += float64(res.EngStats.BaselineInvalidated)

	runner := NewRunner(1)
	res, err = runner.Get(bench.ByName("richards"), VMPyPyTiered, Options{})
	if err != nil {
		t.Fatal(err)
	}
	addStack(want, res, nil)
	promotionsMax += float64(res.EngStats.BaselineInvalidated)

	got := scrapeStack(t, reg)
	promotions := got["mtjit_baseline_promotions_total"]
	delete(got, "mtjit_baseline_promotions_total")
	if promotions <= 0 || promotions > promotionsMax {
		t.Errorf("mtjit_baseline_promotions_total = %v, want in (0, %v]: every promotion invalidates baseline code", promotions, promotionsMax)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("unexpected series %s", k)
		}
	}
	for _, k := range []string{`heap_gc_collections_total{gen="major"}`, `mtjit_controller_decisions_total{kind="trace_backoff"}`, `mtjit_method_compiles_total`, `profile_events_total`} {
		if got[k] == 0 {
			t.Errorf("%s is 0: the cells no longer drive it", k)
		}
	}

	// Nothing below finishes a run.
	before := fmt.Sprint(scrapeStack(t, reg))
	if _, err := runner.Get(bench.ByName("richards"), VMPyPyTiered, Options{}); err != nil {
		t.Fatal(err)
	}
	if st := runner.CacheStats(); st.Hits != 1 {
		t.Fatalf("second Get was not a memo hit: %+v", st)
	}
	if _, err := Run(telco, "jvm", Options{}); err == nil {
		t.Fatal("unknown VM ran")
	}
	broken := &bench.Program{Name: "broken", Source: "def main(:\n"}
	if _, err := Run(broken, VMPyPyTiered, Options{}); err == nil {
		t.Fatal("a guest that does not compile ran")
	}
	if after := fmt.Sprint(scrapeStack(t, reg)); after != before {
		t.Errorf("a memo hit or a failed run moved the stack's series:\nbefore %s\nafter  %s", before, after)
	}
}
