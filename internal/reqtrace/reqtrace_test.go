package reqtrace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	src := NewIDSource(1)
	c := src.NewContext()
	s := c.String()
	if len(s) != 55 || !strings.HasPrefix(s, "00-") || !strings.HasSuffix(s, "-01") {
		t.Fatalf("bad traceparent shape: %q", s)
	}
	got, ok := Parse(s)
	if !ok || got != c {
		t.Fatalf("Parse(%q) = %+v, %v; want %+v", s, got, ok, c)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	valid := NewIDSource(2).NewContext().String()
	bad := []string{
		"",
		valid[:54],  // truncated
		valid + "0", // too long
		strings.Replace(valid, "-", "_", 1),
		"00-" + strings.Repeat("0", 32) + "-" + valid[36:], // zero trace ID
		strings.Replace(valid, valid[3:4], "g", 1),         // non-hex digit
	}
	for _, s := range bad {
		if _, ok := Parse(s); ok {
			t.Errorf("Parse(%q) accepted malformed input", s)
		}
	}
	// Unknown version / flags still parse (forward compatibility).
	fwd := "ff" + valid[2:52] + "-00"
	if _, ok := Parse(fwd); !ok {
		t.Errorf("Parse(%q) rejected future version", fwd)
	}
}

func TestHTTPPropagation(t *testing.T) {
	c := NewIDSource(3).NewContext()
	req := httptest.NewRequest("POST", "/run", nil)
	Inject(req.Header, c)
	if got := FromHTTP(req); got != c {
		t.Fatalf("FromHTTP = %+v, want %+v", got, c)
	}
	if got := FromHTTP(httptest.NewRequest("GET", "/", nil)); !got.IsZero() {
		t.Fatalf("absent header produced context %+v", got)
	}
	Inject(http.Header{}, Context{}) // zero context: must not panic
}

func TestIDSourceUniqueAndDeterministic(t *testing.T) {
	a, b := NewIDSource(42), NewIDSource(42)
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		ta, tb := a.TraceID(), b.TraceID()
		if ta != tb {
			t.Fatalf("same seed diverged at %d: %s vs %s", i, ta.Hex(), tb.Hex())
		}
		if seen[ta.Hex()] {
			t.Fatalf("duplicate trace ID %s", ta.Hex())
		}
		seen[ta.Hex()] = true
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	if r.StartTrace(Context{}, KindRoute, "x") != nil {
		t.Fatal("nil recorder returned a span")
	}
	if r.Trees(0) != nil || r.Find(TraceID{}) != nil || r.Anomaly("x") != "" {
		t.Fatal("nil recorder leaked state")
	}
	var s *Span
	s.End()
	s.EndErr(errors.New("x"))
	s.Annotate("k", "v")
	s.SetKind(KindShed)
	s.AddVM(VMSpan{})
	if s.StartChild(KindMemo, "") != nil || !s.Context().IsZero() {
		t.Fatal("nil span leaked state")
	}
}

func TestTreeLifecycleAndRing(t *testing.T) {
	r := NewRecorder(Config{Process: "p", Capacity: 3})
	var traces []string
	for i := 0; i < 5; i++ {
		root := r.StartTrace(Context{}, KindRun, fmt.Sprintf("req%d", i))
		child := root.StartChild(KindMemo, "hit")
		child.End()
		root.End()
		traces = append(traces, root.Context().Trace.Hex())
	}
	got := r.Trees(0)
	if len(got) != 3 {
		t.Fatalf("ring kept %d trees, want 3", len(got))
	}
	// Newest first: req4, req3, req2.
	for i, want := range []string{traces[4], traces[3], traces[2]} {
		if got[i].Trace != want {
			t.Fatalf("ring[%d] = %s, want %s", i, got[i].Trace, want)
		}
	}
	if got[0].Root().Kind != KindRun || len(got[0].Spans) != 2 {
		t.Fatalf("unexpected tree shape: %+v", got[0])
	}
	if got[0].Spans[1].Parent != got[0].Root().ID {
		t.Fatalf("child parent = %s, want root %s", got[0].Spans[1].Parent, got[0].Root().ID)
	}
}

func TestSpanBoundAndDropCount(t *testing.T) {
	r := NewRecorder(Config{Process: "p", MaxSpans: 4})
	root := r.StartTrace(Context{}, KindRun, "")
	var nils int
	for i := 0; i < 10; i++ {
		if root.StartChild(KindAttempt, "") == nil {
			nils++
		}
	}
	if nils != 7 { // 10 attempts, 3 fit beside the root
		t.Fatalf("got %d refused spans, want 7", nils)
	}
	root.End()
	snap := r.Trees(1)[0]
	if len(snap.Spans) != 4 || snap.Dropped != 7 {
		t.Fatalf("spans=%d dropped=%d, want 4/7", len(snap.Spans), snap.Dropped)
	}
	if r.Dropped() != 7 {
		t.Fatalf("recorder dropped = %d, want 7", r.Dropped())
	}
}

func TestVMSpanBound(t *testing.T) {
	r := NewRecorder(Config{Process: "p", MaxVMSpans: 2})
	root := r.StartTrace(Context{}, KindRun, "")
	sim := root.StartChild(KindSimulate, "telco")
	if sim.CutVM() {
		t.Fatal("CutVM reports an empty capture full")
	}
	for i := 0; i < 5; i++ {
		sim.AddVM(VMSpan{Label: "gc", Phase: "gc", Depth: 1, StartUS: float64(i), DurUS: 1})
	}
	// Past the cap the sink asks before building a span; every refusal
	// is a counted cut, taken while a reader snapshots the tree (a
	// simulation can outlive its request's root span, and completed trees
	// are dumped at any time).
	const asked = 1000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			sim.tree.Snapshot()
		}
	}()
	for i := 0; i < asked; i++ {
		if !sim.CutVM() {
			t.Fatal("CutVM admits a span past the cap")
		}
	}
	<-done
	// The depth-0 run root arrives last (the profiler delivers it at
	// Finish) and must survive the cap.
	sim.AddVM(VMSpan{Label: "interp", Phase: "interp", Depth: 0, StartUS: 0, DurUS: 10})
	sim.End()
	root.End()
	got := r.Trees(1)[0].Spans[1]
	if len(got.VM) != 3 || got.VMCut != 3+asked {
		t.Fatalf("vm=%d cut=%d, want 3/%d", len(got.VM), got.VMCut, 3+asked)
	}
	if last := got.VM[len(got.VM)-1]; last.Depth != 0 {
		t.Fatalf("run root dropped by the cap: %+v", got.VM)
	}
	if !(*Span)(nil).CutVM() {
		t.Fatal("a nil span keeps nothing: CutVM must say so")
	}
}

func TestPropagatedParentLinksTrees(t *testing.T) {
	fe := NewRecorder(Config{Process: "frontend"})
	wk := NewRecorder(Config{Process: "worker"})
	route := fe.StartTrace(Context{}, KindRoute, "telco")
	attempt := route.StartChild(KindAttempt, "w0")
	// Worker receives the attempt's context over the wire.
	run := wk.StartTrace(attempt.Context(), KindRun, "telco")
	run.End()
	attempt.End()
	route.End()

	feSnap, wkSnap := fe.Trees(1)[0], wk.Trees(1)[0]
	if feSnap.Trace != wkSnap.Trace {
		t.Fatalf("trace split: %s vs %s", feSnap.Trace, wkSnap.Trace)
	}
	var attemptID string
	for _, s := range feSnap.Spans {
		if s.Kind == KindAttempt {
			attemptID = s.ID
		}
	}
	if wkSnap.Root().Parent != attemptID {
		t.Fatalf("worker root parent = %s, want frontend attempt %s",
			wkSnap.Root().Parent, attemptID)
	}
}

func TestRootEndClosesOrphans(t *testing.T) {
	r := NewRecorder(Config{Process: "p"})
	root := r.StartTrace(Context{}, KindRoute, "")
	_ = root.StartChild(KindAttempt, "abandoned") // never ended
	root.End()
	snap := r.Trees(1)[0]
	if snap.Spans[1].Err != "unfinished" {
		t.Fatalf("orphan span not closed: %+v", snap.Spans[1])
	}
	if snap.Spans[1].DurUS < 0 {
		t.Fatalf("negative duration %v", snap.Spans[1].DurUS)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRecorder(Config{Process: "p", Capacity: 8, MaxSpans: 1024})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				root := r.StartTrace(Context{}, KindRun, fmt.Sprintf("g%d", g))
				var inner sync.WaitGroup
				for c := 0; c < 4; c++ {
					inner.Add(1)
					go func() {
						defer inner.Done()
						s := root.StartChild(KindAttempt, "")
						s.Annotate("k", "v")
						s.End()
					}()
				}
				inner.Wait()
				root.End()
				r.Trees(2) // concurrent reader
			}
		}(g)
	}
	wg.Wait()
	for _, snap := range r.Trees(0) {
		if len(snap.Spans) != 5 {
			t.Fatalf("tree has %d spans, want 5", len(snap.Spans))
		}
	}
}

// validateChrome runs a Chrome trace through the exported validator and
// returns its decoded events for further assertions.
func validateChrome(t *testing.T, blob []byte) []chromeEvent {
	t.Helper()
	if !json.Valid(blob) {
		t.Fatalf("chrome trace is not valid JSON")
	}
	if _, err := ValidateChrome(blob); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Events []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("decode chrome trace: %v", err)
	}
	return doc.Events
}

func TestWriteChromeMergedAndPaired(t *testing.T) {
	fe := NewRecorder(Config{Process: "frontend"})
	wk := NewRecorder(Config{Process: "worker"})
	route := fe.StartTrace(Context{}, KindRoute, "telco/pypy-tiered")
	sf := route.StartChild(KindSingleflightLead, "")
	attempt := sf.StartChild(KindAttempt, "w0")
	run := wk.StartTrace(attempt.Context(), KindRun, "telco/pypy-tiered")
	sim := run.StartChild(KindSimulate, "telco")
	// A realistic nested phase profile: interp wraps a gc pause.
	sim.AddVM(VMSpan{Label: "gc minor", Phase: "gc", Depth: 1, StartUS: 10, DurUS: 5, Instrs: 100, Cycles: 400})
	sim.AddVM(VMSpan{Label: "interp main", Phase: "interp", Depth: 0, StartUS: 0, DurUS: 100, Instrs: 5000, Cycles: 6000})
	sim.End()
	run.End()
	attempt.End()
	sf.End()
	route.End()

	trees := append(fe.Trees(0), wk.Trees(0)...)
	var buf strings.Builder
	if err := WriteChrome(&buf, trees); err != nil {
		t.Fatal(err)
	}
	events := validateChrome(t, []byte(buf.String()))

	procs := map[string]bool{}
	kinds := map[string]bool{}
	for _, ev := range events {
		if ev.Ph == "M" {
			procs[ev.Args["name"].(string)] = true
		}
		if ev.Ph == "B" {
			if k, ok := ev.Args["kind"].(string); ok {
				kinds[k] = true
			}
		}
	}
	for _, want := range []string{"frontend", "worker", "worker/vm"} {
		if !procs[want] {
			t.Errorf("merged trace missing process %q (have %v)", want, procs)
		}
	}
	for _, want := range []string{KindRoute, KindSingleflightLead, KindAttempt, KindRun, KindSimulate} {
		if !kinds[want] {
			t.Errorf("merged trace missing span kind %q", want)
		}
	}
	// Every event of the merge carries the same trace ID.
	want := trees[0].Trace
	for _, ev := range events {
		if ev.Ph == "M" || ev.Ph == "E" {
			continue
		}
		if got, _ := ev.Args["trace"].(string); got != want {
			t.Fatalf("event %q trace = %q, want %q", ev.Name, got, want)
		}
	}
}

func TestWriteChromeClampsSkewedChild(t *testing.T) {
	r := NewRecorder(Config{Process: "p"})
	root := r.StartTrace(Context{}, KindRoute, "")
	c := root.StartChild(KindAttempt, "slow")
	root.End() // root ends first; child is force-closed at the same instant
	c.End()
	var buf strings.Builder
	if err := WriteChrome(&buf, r.Trees(0)); err != nil {
		t.Fatal(err)
	}
	validateChrome(t, []byte(buf.String())) // must not produce E-before-B
}

func TestHandlerJSONAndChrome(t *testing.T) {
	r := NewRecorder(Config{Process: "p"})
	root := r.StartTrace(Context{}, KindRun, "telco")
	trace := root.Context().Trace
	root.End()
	other := r.StartTrace(Context{}, KindRun, "fib")
	other.End()

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	var dump Dump
	if err := json.Unmarshal(get("/"), &dump); err != nil {
		t.Fatalf("listing: %v", err)
	}
	if dump.Process != "p" || len(dump.Trees) != 2 {
		t.Fatalf("dump = %+v", dump)
	}

	if err := json.Unmarshal(get("/?trace="+trace.Hex()), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Trees) != 1 || dump.Trees[0].Trace != trace.Hex() {
		t.Fatalf("trace filter returned %+v", dump.Trees)
	}

	if err := json.Unmarshal(get("/?n=1"), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Trees) != 1 || dump.Trees[0].Root().Name != "fib" {
		t.Fatalf("n=1 returned %+v", dump.Trees)
	}

	validateChrome(t, get("/?format=chrome"))

	for _, bad := range []string{"/?trace=zz", "/?n=-1"} {
		resp, err := http.Get(srv.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: %s, want 400", bad, resp.Status)
		}
	}
}

func TestAnomalyDump(t *testing.T) {
	dir := t.TempDir()
	r := NewRecorder(Config{Process: "w0", DumpDir: dir})
	root := r.StartTrace(Context{}, KindRun, "telco")
	root.StartChild(KindQuarantine, "deadbeef").EndErr(errors.New("crc mismatch"))
	root.End()

	path := r.Anomaly("quarantine")
	if path == "" {
		t.Fatal("Anomaly returned no path")
	}
	if filepath.Dir(path) != dir {
		t.Fatalf("dump landed in %s, want %s", filepath.Dir(path), dir)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal(blob, &d); err != nil {
		t.Fatalf("dump not JSON: %v", err)
	}
	if d.Reason != "quarantine" || len(d.Trees) != 1 {
		t.Fatalf("dump = %+v", d)
	}
	// Sequence numbering: a second dump gets a fresh file.
	if p2 := r.Anomaly("drain"); p2 == path || p2 == "" {
		t.Fatalf("second dump path %q (first %q)", p2, path)
	}
}

func TestPanicDump(t *testing.T) {
	dir := t.TempDir()
	r := NewRecorder(Config{Process: "p", DumpDir: dir})
	h := PanicDump(r, http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		panic("boom")
	}))
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/run", nil))
	if rw.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rw.Code)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "reqtrace-p-*.json"))
	if len(matches) != 1 {
		t.Fatalf("panic wrote %d dumps, want 1", len(matches))
	}
}

func TestSpanTimingSane(t *testing.T) {
	r := NewRecorder(Config{Process: "p"})
	root := r.StartTrace(Context{}, KindRun, "")
	time.Sleep(2 * time.Millisecond)
	root.End()
	snap := r.Trees(1)[0]
	if d := snap.Root().DurUS; d < 1000 {
		t.Fatalf("root duration %vus, want >= 1000", d)
	}
}
