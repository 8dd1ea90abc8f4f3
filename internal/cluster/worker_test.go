package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
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

	"metajit/internal/bench"
	"metajit/internal/harness"
)

// fakeSimulate is a deterministic stand-in for harness.Run: the result
// is a pure function of the cell, including floats with fractional
// parts (the encoding's hard case). Cluster plumbing tests use it so a
// "simulation" costs nanoseconds; the chaos suite's real-run tests keep
// the true harness in the loop.
func fakeSimulate(p *bench.Program, kind harness.VMKind, opt harness.Options) (*harness.Result, error) {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|%s|%d|%d|%d",
		p.Name, kind, opt.Threshold, opt.BridgeThreshold, opt.BaselineThreshold)))
	res := &harness.Result{Bench: p.Name, VM: kind}
	res.Checksum = int64(binary.BigEndian.Uint64(h[:8]))
	res.Instrs = binary.BigEndian.Uint64(h[8:16])%1e9 + 1
	res.Cycles = float64(res.Instrs) * 1.3337
	res.Bytecodes = res.Instrs / 7
	res.HeapChecksum = binary.BigEndian.Uint64(h[16:24])
	res.GC.Minor = uint64(h[24])
	res.GC.AllocBytes = uint64(binary.BigEndian.Uint32(h[25:29]))
	res.Total.Instrs = res.Instrs
	res.Total.Cycles = res.Cycles
	res.Phases[1].Instrs = res.Instrs / 2
	res.EngStats.LoopsCompiled = int(h[29] % 8)
	res.EngStats.GuardFailures = uint64(h[30])
	return res, nil
}

// newFakeWorker builds a worker on a fake simulator with an optional
// shared store.
func newFakeWorker(t *testing.T, store *Store) *Worker {
	t.Helper()
	catalog, err := NewCatalog("")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(WorkerConfig{Name: "test", Workers: 4, MaxPending: 64, Store: store, Catalog: catalog})
	w.SetSimulate(fakeSimulate)
	return w
}

// memoBytes returns the bytes w's memo serves for id: nil while the cell
// is absent or in flight.
func memoBytes(w *Worker, id CellID) []byte {
	w.mu.Lock()
	e := w.memo[id]
	w.mu.Unlock()
	if e == nil {
		return nil
	}
	select {
	case <-e.done:
		return e.result
	default:
		return nil
	}
}

// joined reports how many requests have joined the simulation of id in
// flight on w.
func joined(w *Worker, id CellID) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e := w.memo[id]; e != nil {
		return e.joined
	}
	return 0
}

// cellOf is the CellID of a default-options request for bench on vm.
func cellOf(t *testing.T, bench, vm string) CellID {
	t.Helper()
	_, _, _, id, err := (*Catalog)(nil).Cell(&Request{Bench: bench, VM: vm})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func postWorkerRun(t *testing.T, ts *httptest.Server, body string) (*http.Response, RunResponse, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var rr RunResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &rr); err != nil {
			t.Fatalf("bad run response: %v\n%s", err, raw)
		}
	}
	return resp, rr, raw
}

// resultBytes extracts the raw result sub-object — the byte-identity
// unit of the whole cluster.
func resultBytes(t *testing.T, raw []byte) []byte {
	t.Helper()
	var rr struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatal(err)
	}
	return rr.Result
}

// TestWorkerServingSources walks one cell per row through a frontend
// and all three serving paths — fresh simulation, in-process memo,
// cross-restart store — and pins that the result payload is
// byte-identical on every one. Rows marked real run the true simulator
// and additionally require the served result to equal bare
// harness.Run's: every VM kind the harness has is servable (the
// frontend once answered 400 "unknown vm" for the last two).
func TestWorkerServingSources(t *testing.T) {
	for _, row := range []struct {
		vm   string
		real bool
	}{
		{vm: "pypy"},
		{vm: "pypy-amalg", real: true},
		{vm: "pypy-adaptive", real: true},
	} {
		t.Run(row.vm, func(t *testing.T) {
			if row.real && testing.Short() {
				t.Skip("real simulation in -short mode")
			}
			store := testStore(t)
			serve := func() (*Worker, *httptest.Server) {
				w := NewWorker(WorkerConfig{Name: "test", Workers: 4, Store: store})
				if !row.real {
					w.SetSimulate(fakeSimulate)
				}
				wts := httptest.NewServer(w.Handler())
				t.Cleanup(wts.Close)
				fts := httptest.NewServer(NewFrontend(FrontendConfig{Workers: []string{wts.URL}}).Handler())
				t.Cleanup(fts.Close)
				return w, fts
			}
			_, ts1 := serve()

			body := `{"bench":"telco","vm":"` + row.vm + `"}`
			resp, rr, raw1 := postWorkerRun(t, ts1, body)
			if resp.StatusCode != http.StatusOK || rr.Source != "simulated" {
				t.Fatalf("first request: status %d source %q body %s", resp.StatusCode, rr.Source, raw1)
			}
			_, rr2, raw2 := postWorkerRun(t, ts1, body)
			if rr2.Source != "memo" {
				t.Fatalf("second request source %q, want memo", rr2.Source)
			}
			if !bytes.Equal(resultBytes(t, raw1), resultBytes(t, raw2)) {
				t.Fatal("memo result differs from simulated result")
			}

			// A "restarted" worker: fresh process state, same store directory.
			w2, ts2 := serve()
			_, rr3, raw3 := postWorkerRun(t, ts2, body)
			if rr3.Source != "store" {
				t.Fatalf("restarted worker source %q, want store", rr3.Source)
			}
			if !bytes.Equal(resultBytes(t, raw1), resultBytes(t, raw3)) {
				t.Fatal("store result differs from simulated result")
			}
			// Who simulated a cell is API (the source of every reply), so a
			// store hit is not promoted: the same worker asked again reads
			// the store again.
			if _, again, _ := postWorkerRun(t, ts2, body); again.Source != "store" {
				t.Fatalf("second request to the restarted worker: source %q, want store", again.Source)
			}
			if memoBytes(w2, cellOf(t, "telco", row.vm)) != nil {
				t.Fatal("a store hit entered the memo")
			}
			if w2.Simulations() != 0 {
				t.Fatal("restarted worker re-simulated a stored cell")
			}
			if rr.CellID != rr3.CellID {
				t.Fatal("cell id changed across processes")
			}

			if row.real {
				bare, err := harness.Run(bench.ByName("telco"), harness.VMKind(row.vm), harness.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(rr.Result.Encode(), FromResult(bare).Encode()) {
					t.Fatal("served result differs from bare harness.Run")
				}
			}
		})
	}
}

// TestWorkerCorruptionFallback: a corrupted store blob is detected,
// quarantined, transparently re-simulated, and the fresh write repairs
// the store — and the re-simulated result is byte-identical to the
// original. The satellite invariant "a corrupted blob is never served"
// falls out of the byte comparison.
func TestWorkerCorruptionFallback(t *testing.T) {
	store := testStore(t)
	w1 := newFakeWorker(t, store)
	ts1 := httptest.NewServer(w1.Handler())
	defer ts1.Close()
	body := `{"bench":"chaos","vm":"pypy-tiered"}`
	_, _, raw1 := postWorkerRun(t, ts1, body)

	// Flip one payload bit in the only stored blob.
	var blobPath string
	err := filepath.WalkDir(store.Dir(), func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(p) == ".mtjs" {
			blobPath = p
		}
		return err
	})
	if err != nil || blobPath == "" {
		t.Fatalf("no blob written: %v", err)
	}
	b, err := os.ReadFile(blobPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(blobPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := newFakeWorker(t, store)
	ts2 := httptest.NewServer(w2.Handler())
	defer ts2.Close()
	_, rr2, raw2 := postWorkerRun(t, ts2, body)
	if rr2.Source != "simulated" {
		t.Fatalf("corrupt-blob request source %q, want simulated (re-run)", rr2.Source)
	}
	if !bytes.Equal(resultBytes(t, raw1), resultBytes(t, raw2)) {
		t.Fatal("re-simulated result differs from pre-corruption result")
	}
	if q, _ := store.Quarantined(); len(q) != 1 {
		t.Fatalf("want 1 quarantined blob, got %d", len(q))
	}
	// Repaired: a third process serves from the store again.
	w3 := newFakeWorker(t, store)
	ts3 := httptest.NewServer(w3.Handler())
	defer ts3.Close()
	if _, rr3, _ := postWorkerRun(t, ts3, body); rr3.Source != "store" {
		t.Fatalf("post-repair source %q, want store", rr3.Source)
	}
}

// TestWorkerRepairsUndecodableBlob: a blob whose frame and CRC verify but
// whose payload does not decode is never served and does not stay. The
// worker simulates the cell and its write puts a good blob in place, so
// the next worker life answers from the store; a payload of another
// wireVersion is removed, anything else quarantined. (Left on disk, the
// blob made every life re-simulate: Put does not overwrite a blob.)
func TestWorkerRepairsUndecodableBlob(t *testing.T) {
	oracle, err := fakeSimulate(bench.ByName("telco"), harness.VMPyPyJIT, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := FromResult(oracle).Encode()
	for name, row := range map[string]struct {
		payload     []byte
		quarantined int
	}{
		"superseded":       {append([]byte{wireVersion + 1}, want[1:]...), 0},
		"trailing garbage": {append(append([]byte(nil), want...), 0), 1},
	} {
		t.Run(name, func(t *testing.T) {
			store := testStore(t)
			if err := store.Put(cellOf(t, "telco", "pypy"), row.payload); err != nil {
				t.Fatal(err)
			}
			for life, source := range []string{"simulated", "store"} {
				ts := httptest.NewServer(newFakeWorker(t, store).Handler())
				_, rr, raw := postWorkerRun(t, ts, `{"bench":"telco","vm":"pypy"}`)
				ts.Close()
				if rr.Source != source {
					t.Fatalf("worker life %d: source %q, want %q (%s)", life+1, rr.Source, source, raw)
				}
				if !bytes.Equal(rr.Result.Encode(), want) {
					t.Fatalf("worker life %d served a result that differs from the oracle's", life+1)
				}
			}
			if q, _ := store.Quarantined(); len(q) != row.quarantined {
				t.Errorf("%d blobs quarantined, want %d", len(q), row.quarantined)
			}
		})
	}
}

// TestWorkerFresh: fresh=true forces a re-simulation even when memo and
// store could serve, and still yields identical bytes.
func TestWorkerFresh(t *testing.T) {
	store := testStore(t)
	w := newFakeWorker(t, store)
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()
	_, _, raw1 := postWorkerRun(t, ts, `{"bench":"telco","vm":"pypy"}`)
	_, rr2, raw2 := postWorkerRun(t, ts, `{"bench":"telco","vm":"pypy","fresh":true}`)
	if rr2.Source != "simulated" {
		t.Fatalf("fresh source %q, want simulated", rr2.Source)
	}
	if w.Simulations() != 2 {
		t.Fatalf("simulations=%d, want 2", w.Simulations())
	}
	if !bytes.Equal(resultBytes(t, raw1), resultBytes(t, raw2)) {
		t.Fatal("fresh re-simulation diverged")
	}
}

// TestWorkerDefaultSpelledOut: a request that spells out a default tier
// threshold names the default's cell, so the worker answers it from the
// memo instead of simulating and storing the cell a second time.
func TestWorkerDefaultSpelledOut(t *testing.T) {
	store := testStore(t)
	w := newFakeWorker(t, store)
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()
	_, rr1, raw1 := postWorkerRun(t, ts, `{"bench":"telco","vm":"pypy"}`)
	_, rr2, raw2 := postWorkerRun(t, ts, `{"bench":"telco","vm":"pypy","threshold":57}`)
	if rr1.Source != "simulated" || rr2.Source != "memo" {
		t.Fatalf("sources %q then %q, want simulated then memo", rr1.Source, rr2.Source)
	}
	if rr1.CellID != rr2.CellID || !bytes.Equal(resultBytes(t, raw1), resultBytes(t, raw2)) {
		t.Fatal("the spelled-out default is a second cell")
	}
	if w.Simulations() != 1 {
		t.Fatalf("simulations=%d, want 1", w.Simulations())
	}
	if n, err := store.Len(); err != nil || n != 1 {
		t.Fatalf("store holds %d blobs (%v), want 1", n, err)
	}
}

// TestWorkerFreshRebuildsEncodedResult: the fresh request replaces the
// finished entry, and its encoded bytes with it, by one in flight, and
// the re-simulation encodes the same bytes again.
func TestWorkerFreshRebuildsEncodedResult(t *testing.T) {
	w := newFakeWorker(t, nil)
	id := cellOf(t, "telco", "pypy")
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()

	postWorkerRun(t, ts, `{"bench":"telco","vm":"pypy"}`)
	old := memoBytes(w, id)
	if old == nil {
		t.Fatal("a simulation left no encoded result")
	}
	gate := make(chan struct{})
	w.SetSimulate(func(p *bench.Program, kind harness.VMKind, opt harness.Options) (*harness.Result, error) {
		<-gate
		return fakeSimulate(p, kind, opt)
	})
	done := make(chan []byte)
	go func() {
		_, _, raw := postWorkerRun(t, ts, `{"bench":"telco","vm":"pypy","fresh":true}`)
		done <- raw
	}()
	for w.Simulations() != 2 {
		time.Sleep(time.Millisecond)
	}
	if memoBytes(w, id) != nil {
		t.Error("the memo serves the old bytes while fresh re-simulates the cell")
	}
	close(gate)
	raw := <-done
	rebuilt := memoBytes(w, id)
	if !bytes.Equal(rebuilt, old) {
		t.Errorf("re-simulation rebuilt different bytes:\n%s\nwas\n%s", rebuilt, old)
	}
	if &rebuilt[0] == &old[0] {
		t.Error("the entry was never rebuilt")
	}
	// The memo's bytes are the reply's "result" member but for the
	// whitespace json.RawMessage trims — none at either end.
	if !bytes.Equal(resultBytes(t, raw), rebuilt) {
		t.Error("the reply does not carry the memo's bytes")
	}
}

// TestWorkerShedding: past MaxPending the worker sheds with 429 +
// Retry-After before doing any work; the admitted request still
// finishes, and with capacity free again new runs are accepted.
func TestWorkerShedding(t *testing.T) {
	catalog, _ := NewCatalog("")
	w := NewWorker(WorkerConfig{Name: "shed", Workers: 1, MaxPending: 1, Catalog: catalog})
	block := make(chan struct{})
	w.SetSimulate(func(p *bench.Program, kind harness.VMKind, opt harness.Options) (*harness.Result, error) {
		<-block
		return fakeSimulate(p, kind, opt)
	})
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if resp, _, _ := postWorkerRun(t, ts, `{"bench":"telco","vm":"pypy"}`); resp.StatusCode != http.StatusOK {
			t.Errorf("admitted request finished with %d", resp.StatusCode)
		}
	}()
	for w.Pending() == 0 {
	}
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(`{"bench":"chaos","vm":"pypy"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	close(block)
	wg.Wait()
	if resp, _, _ := postWorkerRun(t, ts, `{"bench":"chaos","vm":"pypy"}`); resp.StatusCode != http.StatusOK {
		t.Errorf("post-recovery run: status %d", resp.StatusCode)
	}
	if got := metricValue(t, ts.URL, "cluster_worker_requests_total", `outcome="shed"`); got != 1 {
		t.Fatalf("shed counter = %v, want 1", got)
	}
}

// TestWorkerDrain: a draining worker 503s new runs (the frontend's
// failover signal) while reporting drain state on /healthz.
func TestWorkerDrain(t *testing.T) {
	w := newFakeWorker(t, nil)
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !w.Draining() {
		t.Fatal("drain did not latch")
	}
	resp, err = http.Post(ts.URL+"/run", "application/json", strings.NewReader(`{"bench":"telco","vm":"pypy"}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(b), "draining") {
		t.Fatalf("draining run: status %d body %s", resp.StatusCode, b)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if ct := hr.Header.Get("Content-Type"); hr.StatusCode != http.StatusServiceUnavailable || ct != "application/json" {
		t.Fatalf("draining healthz: %d %q, want 503 application/json", hr.StatusCode, ct)
	}
	var health struct {
		Draining bool `json:"draining"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil || !health.Draining {
		t.Fatalf("draining healthz body: %+v, %v", health, err)
	}
}

// TestWorkerBadRequests: the worker and a frontend over it refuse the
// same bodies with 400 before any work.
func TestWorkerBadRequests(t *testing.T) {
	w := newFakeWorker(t, nil)
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()
	fts := httptest.NewServer(NewFrontend(FrontendConfig{Workers: []string{ts.URL}}).Handler())
	defer fts.Close()
	for name, body := range map[string]string{
		"unknown bench": `{"bench":"nope","vm":"pypy"}`,
		"unknown vm":    `{"bench":"telco","vm":"jvm"}`,
		"bad json":      `{`,
		"unknown field": `{"bench":"telco","vm":"pypy","frehs":true}`,
		"removed field": `{"bench":"telco","vm":"pypy","max_instrs":2000000}`,
		// A sample interval changed the CellID and no byte of the reply:
		// the wire carries no Samples.
		"sample interval": `{"bench":"telco","vm":"pypy","sample_interval":1}`,
		// A threshold at or below zero runs with the default: a negative
		// one would split the default cell.
		"negative threshold":          `{"bench":"telco","vm":"pypy","threshold":-1}`,
		"negative bridge threshold":   `{"bench":"telco","vm":"pypy","bridge_threshold":-2}`,
		"negative baseline threshold": `{"bench":"telco","vm":"pypy-tiered","baseline_threshold":-3}`,
	} {
		for _, base := range []string{ts.URL, fts.URL} {
			resp, err := http.Post(base+"/run", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
			}
		}
	}
	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run: status %d, want 405", resp.StatusCode)
	}
}

// metricValue scrapes one sample value from a /metrics endpoint.
func metricValue(t *testing.T, base, family, labelFrag string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, family) && (labelFrag == "" || strings.Contains(line, labelFrag)) {
			var v float64
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%g", &v); err == nil {
				return v
			}
		}
	}
	return -1
}
