package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metajit/internal/bench"
	"metajit/internal/harness"
)

// testCluster is an in-process frontend + N real workers over one
// shared store, all on httptest servers and fake simulators.
type testCluster struct {
	frontend *Frontend
	fts      *httptest.Server
	workers  []*Worker
	servers  []*httptest.Server
	byURL    map[string]*Worker
}

func newTestCluster(t *testing.T, n int, store *Store) *testCluster {
	t.Helper()
	c := &testCluster{byURL: map[string]*Worker{}}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		w := newFakeWorker(t, store)
		ts := httptest.NewServer(w.Handler())
		t.Cleanup(ts.Close)
		c.workers = append(c.workers, w)
		c.servers = append(c.servers, ts)
		c.byURL[ts.URL] = w
		urls[i] = ts.URL
	}
	catalog, err := NewCatalog("")
	if err != nil {
		t.Fatal(err)
	}
	c.frontend = NewFrontend(FrontendConfig{
		Workers: urls,
		Backoff: time.Millisecond,
		Catalog: catalog,
	})
	c.fts = httptest.NewServer(c.frontend.Handler())
	t.Cleanup(c.fts.Close)
	return c
}

// owner returns the worker that the ring routes this request body to.
func (c *testCluster) owner(t *testing.T, body string) (*Worker, string) {
	t.Helper()
	var req Request
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	_, _, _, id, err := c.frontend.cfg.Catalog.Cell(&req)
	if err != nil {
		t.Fatal(err)
	}
	url := c.frontend.Ring().Lookup(id)
	return c.byURL[url], url
}

func (c *testCluster) post(t *testing.T, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(c.fts.URL+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestFrontendRoutesToOwner: every cell lands on exactly the worker the
// ring names as its owner — and nobody else simulates it.
func TestFrontendRoutesToOwner(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	for _, benchName := range []string{"telco", "chaos", "nbody", "richards", "spectralnorm"} {
		body := fmt.Sprintf(`{"bench":%q,"vm":"pypy"}`, benchName)
		owner, url := c.owner(t, body)
		before := owner.Runner().Simulations()
		resp, _ := c.post(t, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", benchName, resp.StatusCode)
		}
		if owner.Runner().Simulations() != before+1 {
			t.Errorf("%s: owner %s did not simulate", benchName, url)
		}
		for u, w := range c.byURL {
			if u != url && w.Runner().Peek(mustCell(t, c, body)) != nil {
				t.Errorf("%s: non-owner %s holds the cell", benchName, u)
			}
		}
	}
}

func mustCell(t *testing.T, c *testCluster, body string) (*bench.Program, harness.VMKind, harness.Options) {
	t.Helper()
	var req Request
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	p, kind, opt, _, err := c.frontend.cfg.Catalog.Cell(&req)
	if err != nil {
		t.Fatal(err)
	}
	return p, kind, opt
}

// TestFrontendFailover: with the owner dead, the request fails over to
// the next ring successor and still succeeds; with everyone dead, the
// client gets a 502 naming the failure.
func TestFrontendFailover(t *testing.T) {
	store := testStore(t)
	c := newTestCluster(t, 3, store)
	body := `{"bench":"telco","vm":"pypy"}`
	owner, url := c.owner(t, body)
	_ = owner
	// Kill the owner before it ever serves the cell.
	for i, ts := range c.servers {
		if ts.URL == url {
			ts.Close()
			c.servers[i] = nil
		}
	}
	resp, raw := c.post(t, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover request failed: %d %s", resp.StatusCode, raw)
	}
	var rr RunResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Source != "simulated" {
		t.Fatalf("successor source %q", rr.Source)
	}
	if v := c.frontend.failovers.Value(); v < 1 {
		t.Fatalf("failover counter %d, want >= 1", v)
	}

	// Total outage: every worker down → 502, not a hang.
	for _, ts := range c.servers {
		if ts != nil {
			ts.Close()
		}
	}
	resp, raw = c.post(t, `{"bench":"chaos","vm":"pypy"}`)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("total outage: status %d body %s", resp.StatusCode, raw)
	}
}

// TestFrontendRefusesBadUpstreamBody: a worker whose reply is over the
// frontend's bound — declared or streamed — or shorter than it declared
// has failed like one that hung up: the request moves to the ring
// successor, and with no successor left it is a 502. The reply is never
// passed on cut short as a 200.
func TestFrontendRefusesBadUpstreamBody(t *testing.T) {
	over := bytes.Repeat([]byte{' '}, maxUpstreamBody+1)
	for name, reply := range map[string]http.HandlerFunc{
		"declared over the bound": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(len(over)))
			_, _ = w.Write(over)
		},
		"streamed over the bound": func(w http.ResponseWriter, r *http.Request) {
			w.(http.Flusher).Flush() // headers leave before the body: no length, chunked
			_, _ = w.Write(over)
		},
		"shorter than declared": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", "7112")
			_, _ = w.Write([]byte(`{"cell_id": "`)) // the server hangs up on return
		},
	} {
		t.Run(name, func(t *testing.T) {
			var asked atomic.Int64
			hostile := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				asked.Add(1)
				reply(w, r)
			}))
			t.Cleanup(hostile.Close)
			good := newFakeWorker(t, nil)
			gts := httptest.NewServer(good.Handler())
			t.Cleanup(gts.Close)
			catalog, _ := NewCatalog("")
			post := func(f *Frontend, body string) (int, []byte) {
				rec := httptest.NewRecorder()
				f.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body)))
				return rec.Code, rec.Body.Bytes()
			}

			alone := NewFrontend(FrontendConfig{Workers: []string{hostile.URL}, Backoff: time.Millisecond, Catalog: catalog})
			if code, raw := post(alone, `{"bench":"telco","vm":"pypy"}`); code != http.StatusBadGateway || len(raw) > 1<<10 {
				t.Fatalf("hostile worker alone: status %d with a %d-byte body, want a 502 and its error", code, len(raw))
			}
			if asked.Load() != 1 {
				t.Fatalf("the hostile worker was asked %d times, want once", asked.Load())
			}

			// A cell the hostile worker owns: the good one is its successor.
			pair := NewFrontend(FrontendConfig{Workers: []string{hostile.URL, gts.URL}, Backoff: time.Millisecond, Catalog: catalog})
			var body string
			for _, p := range bench.All() {
				body = fmt.Sprintf(`{"bench":%q,"vm":"pypy"}`, p.Name)
				if _, _, _, id, _ := catalog.Cell(&Request{Bench: p.Name, VM: "pypy"}); pair.Ring().Lookup(id) == hostile.URL {
					break
				}
			}
			code, raw := post(pair, body)
			var rr RunResponse
			if err := json.Unmarshal(raw, &rr); code != http.StatusOK || err != nil || rr.Source != "simulated" {
				t.Fatalf("with a good successor: status %d, source %q, %v", code, rr.Source, err)
			}
			if asked.Load() != 2 || pair.failovers.Value() != 1 || good.Runner().Simulations() != 1 {
				t.Fatalf("hostile asked %d times, %d failovers, %d simulations on the successor; want 2, 1, 1",
					asked.Load(), pair.failovers.Value(), good.Runner().Simulations())
			}
		})
	}
}

// TestFrontendDrainFailover: a draining worker's 503 triggers failover,
// and the shared store means the successor can serve a cell the drained
// worker already computed — without re-simulating it.
func TestFrontendDrainFailover(t *testing.T) {
	store := testStore(t)
	c := newTestCluster(t, 3, store)
	body := `{"bench":"telco","vm":"pypy"}`
	owner, _ := c.owner(t, body)

	// Warm the cell on its owner, then drain the owner.
	if resp, _ := c.post(t, body); resp.StatusCode != http.StatusOK {
		t.Fatal("warmup failed")
	}
	owner.Drain()

	resp, raw := c.post(t, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drained-owner request failed: %d %s", resp.StatusCode, raw)
	}
	var rr RunResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Source != "store" {
		t.Fatalf("successor source %q, want store (shared store handoff)", rr.Source)
	}
	total := 0
	for _, w := range c.workers {
		total += w.Runner().Simulations()
	}
	if total != 1 {
		t.Fatalf("cluster simulated %d times for one cell across a drain, want 1", total)
	}
}

// TestFrontend429Propagation is the satellite-1 regression: when the
// owning worker sheds with 429 + Retry-After, the frontend propagates
// the response to the client verbatim and does NOT retry — the
// saturated worker receives exactly one request, and no other worker
// receives any (shed load must not migrate off the owner and recompute
// cells the owner will memoize moments later).
func TestFrontend429Propagation(t *testing.T) {
	// Stub workers with per-worker request counters; every worker is
	// "saturated" so any retry anywhere would be visible.
	const n = 3
	counts := make([]atomic.Int64, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			counts[i].Add(1)
			w.Header().Set("Retry-After", "7")
			httpError(w, http.StatusTooManyRequests, "run queue full")
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	catalog, _ := NewCatalog("")
	f := NewFrontend(FrontendConfig{Workers: urls, Backoff: time.Millisecond, Catalog: catalog})
	fts := httptest.NewServer(f.Handler())
	t.Cleanup(fts.Close)

	resp, err := http.Post(fts.URL+"/run", "application/json", strings.NewReader(`{"bench":"telco","vm":"pypy"}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("client saw status %d, want 429 (body %s)", resp.StatusCode, b)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After %q not propagated", ra)
	}
	var total, nonzero int64
	for i := range counts {
		c := counts[i].Load()
		total += c
		if c > 0 {
			nonzero++
		}
	}
	if total != 1 || nonzero != 1 {
		t.Fatalf("saturated cluster received %d requests on %d workers, want exactly 1 on 1 (no retries of a 429)", total, nonzero)
	}
	if v := f.reqShed.Value(); v != 1 {
		t.Fatalf("frontend shed counter %d, want 1", v)
	}
	if v := f.failovers.Value(); v != 0 {
		t.Fatalf("429 triggered %d failovers, want 0", v)
	}
}

// TestFrontendDedup is the satellite-2 cluster-level check: M identical
// concurrent cells through the frontend cause exactly one simulation
// cluster-wide — asserted three independent ways: the harness cache
// stats on the owning worker, the worker's telemetry counters, and the
// frontend's dedup counter. All M responses are byte-identical.
func TestFrontendDedup(t *testing.T) {
	const m = 12
	c := newTestCluster(t, 3, nil)
	body := `{"bench":"telco","vm":"pypy"}`
	owner, url := c.owner(t, body)

	// Gate the simulation so all M requests are demonstrably in flight
	// together before any result exists.
	release := make(chan struct{})
	var execs atomic.Int64
	owner.Runner().SetSimulate(func(p *bench.Program, kind harness.VMKind, opt harness.Options) (*harness.Result, error) {
		execs.Add(1)
		<-release
		return fakeSimulate(p, kind, opt)
	})

	var req Request
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	_, _, _, id, err := c.frontend.cfg.Catalog.Cell(&req)
	if err != nil {
		t.Fatal(err)
	}

	results := make(chan []byte, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, raw := c.post(t, body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, raw)
				return
			}
			results <- raw
		}()
	}
	// All M clients have coalesced when the singleflight reports M-1
	// waiters on this cell; only then release the simulation.
	for c.frontend.sf.waiters(id.Hex()) != int64(m-1) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(results)

	if n := execs.Load(); n != 1 {
		t.Fatalf("simulator executed %d times, want 1", n)
	}
	if n := owner.Runner().Simulations(); n != 1 {
		t.Fatalf("harness cache stats: %d simulations, want 1", n)
	}
	stats := owner.Runner().CacheStats()
	if stats.Misses != 1 {
		t.Fatalf("harness cache stats: %d misses, want 1", stats.Misses)
	}
	if v := owner.runSim.Value(); v != 1 {
		t.Fatalf("worker telemetry: %d simulated requests, want 1 (worker %s)", v, url)
	}
	if v := c.frontend.dedup.Value(); v != m-1 {
		t.Fatalf("frontend dedup counter %d, want %d", v, m-1)
	}
	var first []byte
	for raw := range results {
		rb := resultBytes(t, raw)
		if first == nil {
			first = rb
		} else if !bytes.Equal(first, rb) {
			t.Fatal("coalesced clients received differing result bytes")
		}
	}
	if first == nil {
		t.Fatal("no successful responses")
	}
}

// TestFrontendFreshBypassesDedup: fresh requests must not coalesce —
// each one forces its own re-simulation.
func TestFrontendFreshBypassesDedup(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	body := `{"bench":"telco","vm":"pypy","fresh":true}`
	owner, _ := c.owner(t, body)
	for i := 0; i < 3; i++ {
		if resp, _ := c.post(t, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("fresh request %d failed", i)
		}
	}
	if n := owner.Runner().Simulations(); n != 3 {
		t.Fatalf("fresh simulations = %d, want 3", n)
	}
	if v := c.frontend.dedup.Value(); v != 0 {
		t.Fatalf("fresh requests were deduped (%d)", v)
	}
}

// TestFrontendRingEndpoint: the operator routing debugger answers with
// the owner and the full distinct failover sequence.
func TestFrontendRingEndpoint(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	resp, err := http.Get(c.fts.URL + "/ring?bench=telco&vm=pypy")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		CellID     string   `json:"cell_id"`
		Owner      string   `json:"owner"`
		Successors []string `json:"successors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Successors) != 3 || out.Successors[0] != out.Owner {
		t.Fatalf("bad ring answer: %+v", out)
	}
}
