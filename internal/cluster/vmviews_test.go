package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"metajit/internal/harness"
	"metajit/internal/telemetry"
)

// newRealWorker serves a worker on the true simulator (the live views
// need a real annotation stream; fakeSimulate has none).
func newRealWorker(t *testing.T, cfg WorkerConfig) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewWorker(cfg).Handler())
	t.Cleanup(ts.Close)
	if cfg.InstallStackTelemetry {
		// Telemetry installation is process-global (last registry wins);
		// detach on teardown so later tests start from a clean slate.
		t.Cleanup(func() { harness.InstallTelemetry(nil) })
	}
	return ts
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// TestRunMetricsHealthz drives a store-less worker as a real daemon
// runs it (stack telemetry installed): simulate a tiered benchmark,
// re-request it (memo hit), force a fresh re-run, and verify the scraped
// /metrics parse as valid Prometheus text with every layer's families
// present and consistent values, and /healthz carries the memo's
// statistics.
func TestRunMetricsHealthz(t *testing.T) {
	ts := newRealWorker(t, WorkerConfig{Name: "solo", Workers: 2, InstallStackTelemetry: true})

	for _, step := range []struct{ body, source string }{
		{`{"bench":"telco","vm":"pypy-tiered"}`, "simulated"},
		{`{"bench":"telco","vm":"pypy-tiered"}`, "memo"},
		{`{"bench":"telco","vm":"pypy-tiered","fresh":true}`, "simulated"},
	} {
		resp, rr, _ := postWorkerRun(t, ts, step.body)
		if resp.StatusCode != http.StatusOK || rr.Source != step.source {
			t.Fatalf("POST %s: status %d source %q, want %q", step.body, resp.StatusCode, rr.Source, step.source)
		}
		if rr.Result.Eng.LoopsCompiled == 0 || rr.Result.Eng.BaselinesCompiled == 0 {
			t.Errorf("tiered run compiled %d loops, %d baselines", rr.Result.Eng.LoopsCompiled, rr.Result.Eng.BaselinesCompiled)
		}
	}

	// /metrics must parse as valid Prometheus exposition and carry
	// families from every instrumented layer.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	fams, err := telemetry.ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("/metrics is not valid exposition: %v\n%s", err, buf.String())
	}
	for _, want := range []string{
		"mtjit_traces_compiled_total",
		"mtjit_baseline_compiles_total",
		"heap_gc_collections_total",
		"heap_promoted_bytes_total",
		"cluster_worker_requests_total",
		"cluster_worker_uptime_seconds",
		"cluster_worker_goroutines",
	} {
		if fams[want] == nil {
			t.Errorf("/metrics missing family %s", want)
		}
	}
	for outcome, want := range map[string]float64{"simulated": 2, "memo": 1} {
		if v := metricValue(t, ts.URL, "cluster_worker_requests_total", `outcome="`+outcome+`"`); v != want {
			t.Errorf(`cluster_worker_requests_total{outcome=%q} = %g, want %g`, outcome, v, want)
		}
	}

	var hz struct {
		OK         bool   `json:"ok"`
		Name       string `json:"name"`
		Draining   bool   `json:"draining"`
		ActiveRuns *int   `json:"active_runs"`
		Cache      struct {
			Requests int     `json:"requests"`
			Hits     int     `json:"hits"`
			Misses   int     `json:"misses"`
			HitRate  float64 `json:"hit_rate"`
		} `json:"cache"`
	}
	getJSON(t, ts.URL+"/healthz", &hz)
	if !hz.OK || hz.Name != "solo" || hz.Draining || hz.ActiveRuns == nil || *hz.ActiveRuns != 0 {
		t.Errorf("healthz = %+v", hz)
	}
	if hz.Cache.Requests != 3 || hz.Cache.Misses != 2 || hz.Cache.Hits != 1 || hz.Cache.HitRate != 1.0/3 {
		t.Errorf("healthz cache stats = %+v", hz.Cache)
	}
}

// TestLiveIntrospection polls /vm/phases and /vm/traces WHILE a slow
// benchmark is executing and must observe an in-flight (done=false)
// run with advancing counters and a trace inventory — on a store-less
// worker (single mode) and on a worker with a store alike.
func TestLiveIntrospection(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation in -short mode")
	}
	t.Run("no-store", func(t *testing.T) { testLiveIntrospection(t, nil) })
	t.Run("store", func(t *testing.T) { testLiveIntrospection(t, testStore(t)) })
}

func testLiveIntrospection(t *testing.T, store *Store) {
	ts := newRealWorker(t, WorkerConfig{Name: "live", Workers: 2, Store: store, LiveInterval: 256})

	done := make(chan RunResponse, 1)
	go func() {
		_, rr, _ := postWorkerRun(t, ts, `{"bench":"hexiom2","vm":"pypy"}`)
		done <- rr
	}()

	type phasesReply struct {
		Runs []struct {
			ID     uint64              `json:"id"`
			Bench  string              `json:"bench"`
			Done   bool                `json:"done"`
			Instrs uint64              `json:"instrs"`
			Phases []harness.LivePhase `json:"phases"`
		} `json:"runs"`
	}
	var sawLive bool
	var liveID uint64
	deadline := time.Now().Add(10 * time.Second)
	for !sawLive && time.Now().Before(deadline) {
		var pr phasesReply
		getJSON(t, ts.URL+"/vm/phases", &pr)
		for _, run := range pr.Runs {
			if run.Bench == "hexiom2" && !run.Done && run.Instrs > 0 {
				sawLive = true
				liveID = run.ID
				if len(run.Phases) == 0 {
					t.Error("in-flight run published no phase counters")
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !sawLive {
		t.Fatal("never observed an in-flight run on /vm/phases")
	}

	// The trace inventory must also be visible mid-run (hexiom2 on the
	// JIT compiles traces well before it finishes).
	var sawTraces bool
	type tracesReply struct {
		Runs []struct {
			Done   bool                `json:"done"`
			Traces []harness.LiveTrace `json:"traces"`
		} `json:"runs"`
	}
	for !sawTraces && time.Now().Before(deadline) {
		var tr tracesReply
		resp := getJSON(t, fmt.Sprintf("%s/vm/traces?id=%d", ts.URL, liveID), &tr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/vm/traces?id=%d status %d", liveID, resp.StatusCode)
		}
		for _, run := range tr.Runs {
			if len(run.Traces) > 0 && !run.Done {
				sawTraces = true
				for _, trc := range run.Traces {
					if trc.Label == "" {
						t.Errorf("trace %d has no label", trc.ID)
					}
				}
			}
			if run.Done {
				sawTraces = true // run finished before we caught it; inventory still checked below
			}
		}
		time.Sleep(2 * time.Millisecond)
	}

	rr := <-done
	if rr.Result == nil || rr.Result.Instrs == 0 {
		t.Fatalf("hexiom2 run failed: %+v", rr)
	}
	// After completion the run must still be listed, now done.
	var pr phasesReply
	getJSON(t, fmt.Sprintf("%s/vm/phases?id=%d", ts.URL, liveID), &pr)
	if len(pr.Runs) != 1 || !pr.Runs[0].Done || pr.Runs[0].Instrs != rr.Result.Instrs {
		t.Errorf("finished run state on /vm/phases: %+v (want done, instrs=%d)", pr.Runs, rr.Result.Instrs)
	}

	if resp := getJSON(t, ts.URL+"/vm/phases?id=999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id status %d, want 404", resp.StatusCode)
	}
}

// TestTracesListBothLowerTiers: /vm/traces carries one lower-tier
// inventory with a tier per entry — richards on the amalgamated strategy
// compiles baseline fragments and method code, and both must be listed
// with their labels.
func TestTracesListBothLowerTiers(t *testing.T) {
	ts := newRealWorker(t, WorkerConfig{Workers: 1})
	resp, rr, _ := postWorkerRun(t, ts, `{"bench":"richards","vm":"pypy-amalg"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("richards run failed: %d", resp.StatusCode)
	}
	var tr struct {
		Runs []struct {
			Code []harness.LiveCode `json:"code"`
		} `json:"runs"`
	}
	getJSON(t, ts.URL+"/vm/traces", &tr)
	if len(tr.Runs) != 1 {
		t.Fatalf("/vm/traces listed %d runs, want 1", len(tr.Runs))
	}
	perTier := map[string]int{}
	for _, c := range tr.Runs[0].Code {
		perTier[c.Tier]++
		if c.Label == "" || c.Ops == 0 {
			t.Errorf("%s code %d: label %q, %d ops", c.Tier, c.ID, c.Label, c.Ops)
		}
	}
	eng := rr.Result.Eng
	if eng.MethodsCompiled == 0 || perTier["method"] != eng.MethodsCompiled || perTier["baseline"] != eng.BaselinesCompiled {
		t.Errorf("inventory lists %v, engine compiled %d baselines and %d methods",
			perTier, eng.BaselinesCompiled, eng.MethodsCompiled)
	}
}

// TestWarmupSSE reads a bounded server-sent-event stream and checks the
// event grammar and the per-tier work fractions.
func TestWarmupSSE(t *testing.T) {
	ts := newRealWorker(t, WorkerConfig{Workers: 2})
	if resp, _, _ := postWorkerRun(t, ts, `{"bench":"telco","vm":"pypy-tiered"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed run failed: %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/vm/warmup?events=3&interval=20ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	events := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "data: ") {
			t.Fatalf("non-SSE line %q", line)
		}
		var ev warmupEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event JSON: %v", err)
		}
		events++
		if len(ev.Runs) == 0 {
			t.Fatal("warmup event listed no runs")
		}
		run := ev.Runs[0]
		if run.Bench != "telco" || !run.Done || run.Bytecodes == 0 {
			t.Errorf("warmup run = %+v", run)
		}
		var frac float64
		for _, f := range run.Tiers {
			frac += f
		}
		if frac < 0.999 || frac > 1.001 {
			t.Errorf("tier work fractions sum to %g", frac)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if events != 3 {
		t.Errorf("got %d events, want 3", events)
	}
}

// TestPprofMounted: the runtime profiler must answer on every serving
// process's mux — worker and frontend mount it through the same helper.
func TestPprofMounted(t *testing.T) {
	worker := newRealWorker(t, WorkerConfig{Workers: 1})
	frontend := httptest.NewServer(NewFrontend(FrontendConfig{Workers: []string{worker.URL}}).Handler())
	defer frontend.Close()
	for name, base := range map[string]string{"worker": worker.URL, "frontend": frontend.URL} {
		resp, err := http.Get(base + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s /debug/pprof/ status %d", name, resp.StatusCode)
		}
	}
}
