package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"metajit/internal/reqtrace"
)

// fetchTrace scrapes one process's /debug/reqtrace for a single trace,
// the way mtjitload and the CI smoke job do — through the HTTP surface,
// not the in-process accessors.
func fetchTrace(t *testing.T, base, trace string) []reqtrace.TreeSnapshot {
	t.Helper()
	resp, err := http.Get(base + "/debug/reqtrace?trace=" + trace)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var d reqtrace.Dump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("bad /debug/reqtrace payload: %v\n%s", err, raw)
	}
	return d.Trees
}

// TestReqTraceEndToEndMergedChrome is the tentpole acceptance test: one
// traced request through frontend → worker triggering a REAL (bounded)
// simulation yields, under the client's single trace ID, the frontend's
// route → singleflight → attempt spans, the worker's run → simulate
// spans, AND the simulation's own VM phase spans — and the merged
// export is a valid Chrome trace carrying both reqtrace and vmphase
// event categories.
func TestReqTraceEndToEndMergedChrome(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation in -short mode")
	}
	catalog, err := NewCatalog("")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(WorkerConfig{Name: "e2e", Workers: 2, Catalog: catalog})
	wts := httptest.NewServer(w.Handler())
	defer wts.Close()
	f := NewFrontend(FrontendConfig{Workers: []string{wts.URL}, Catalog: catalog})
	fts := httptest.NewServer(f.Handler())
	defer fts.Close()

	// postTraced runs the test's one cell under a client-minted trace.
	postTraced := func(base string, ctx reqtrace.Context) RunResponse {
		t.Helper()
		body := `{"bench":"telco","vm":"pypy"}`
		req, err := http.NewRequest(http.MethodPost, base+"/run", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		reqtrace.Inject(req.Header, ctx)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("traced run: status %d body %s", resp.StatusCode, raw)
		}
		var rr RunResponse
		if err := json.Unmarshal(raw, &rr); err != nil {
			t.Fatal(err)
		}
		return rr
	}

	ctx := reqtrace.NewIDSource(12345).NewContext()
	if rr := postTraced(fts.URL, ctx); rr.Source != "simulated" {
		t.Fatalf("source %q, want a fresh simulation", rr.Source)
	}

	// Scrape both processes over HTTP and merge, like mtjitload does.
	trace := ctx.Trace.Hex()
	trees := append(fetchTrace(t, fts.URL, trace), fetchTrace(t, wts.URL, trace)...)
	if len(trees) != 2 {
		t.Fatalf("got %d trees for trace %s, want frontend + worker", len(trees), trace)
	}

	// The span-kind chain and the VM phase linkage, all on one trace ID.
	kinds := map[string]int{}
	spanIDs := map[string]bool{}
	vmSpans := 0
	var runID, simParent string
	for _, tree := range trees {
		if tree.Trace != trace {
			t.Fatalf("tree from %s carries trace %s, want %s", tree.Process, tree.Trace, trace)
		}
		for _, s := range tree.Spans {
			kinds[s.Kind]++
			spanIDs[s.ID] = true
			switch s.Kind {
			case reqtrace.KindRun:
				runID = s.ID
			case reqtrace.KindSimulate:
				vmSpans = len(s.VM)
				simParent = s.Parent
			}
		}
	}
	if simParent != runID {
		t.Errorf("simulate span parented under %s, want the run root %s", simParent, runID)
	}
	for _, k := range []string{
		reqtrace.KindRoute, reqtrace.KindSingleflightLead,
		reqtrace.KindAttempt, reqtrace.KindRun, reqtrace.KindSimulate,
	} {
		if kinds[k] != 1 {
			t.Errorf("kind %q appears %d times, want 1 (kinds: %v)", k, kinds[k], kinds)
		}
	}
	if vmSpans == 0 {
		t.Fatal("simulate span captured no VM phase spans — the profiler link is broken")
	}
	// Cross-process connectivity: every parent resolves in the merged
	// set or is the client's minted span.
	for _, tree := range trees {
		for _, s := range tree.Spans {
			if s.Parent != ctx.Span.Hex() && !spanIDs[s.Parent] {
				t.Errorf("%s span %s (%s): parent %s unresolved across the merge", tree.Process, s.ID, s.Kind, s.Parent)
			}
		}
	}

	// The merged Chrome export must validate and carry both categories.
	var buf bytes.Buffer
	if err := reqtrace.WriteChrome(&buf, trees); err != nil {
		t.Fatal(err)
	}
	events, err := reqtrace.ValidateChrome(buf.Bytes())
	if err != nil {
		t.Fatalf("merged chrome trace invalid: %v", err)
	}
	if events == 0 {
		t.Fatal("merged chrome trace is empty")
	}
	blob := buf.String()
	for _, frag := range []string{`"reqtrace"`, `"vmphase"`, trace} {
		if !strings.Contains(blob, frag) {
			t.Errorf("merged chrome trace missing %s", frag)
		}
	}

	// The same cell again, straight at the worker under a fresh trace: a
	// memo span under a run root parented to the client's span, no
	// simulate span, and no VM spans — nothing attaches on a cache hit.
	ctx2 := reqtrace.NewIDSource(54321).NewContext()
	if rr := postTraced(wts.URL, ctx2); rr.Source != "memo" {
		t.Fatalf("repeat source %q, want memo", rr.Source)
	}
	memoTrees := fetchTrace(t, wts.URL, ctx2.Trace.Hex())
	if len(memoTrees) != 1 {
		t.Fatalf("memo trace has %d trees, want 1", len(memoTrees))
	}
	if root := memoTrees[0].Root(); root.Kind != reqtrace.KindRun || root.Parent != ctx2.Span.Hex() {
		t.Errorf("memo tree root kind %q parent %s, want run under the client span", root.Kind, root.Parent)
	}
	memo := 0
	for _, s := range memoTrees[0].Spans {
		switch s.Kind {
		case reqtrace.KindMemo:
			memo++
			if len(s.VM) != 0 {
				t.Error("memo span carries VM spans — the profiler attached on a cache hit")
			}
		case reqtrace.KindSimulate:
			t.Error("memoized request recorded a simulate span")
		}
	}
	if memo != 1 {
		t.Errorf("%d memo spans, want 1", memo)
	}
}
