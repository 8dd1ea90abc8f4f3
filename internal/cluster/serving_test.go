package cluster

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"metajit/internal/bench"
	"metajit/internal/harness"
	"metajit/internal/reqtrace"
)

// TestRunReplyMatchesEncoder: the reply writeRun splices together is,
// byte for byte, what json.Encoder with two-space indentation gives for
// the RunResponse that clients decode it into — for every source and for
// the values the two could print differently.
func TestRunReplyMatchesEncoder(t *testing.T) {
	awkward := sampleResult() // negative checksum, floats past float32
	awkward.Bench = `a<b>&"c"` + "\u2028\\"
	awkward.Cycles = 1.2345e21 // printed with an exponent
	awkward.Total.Cycles = 1e-7
	awkward.Phases[3].Cycles = math.MaxFloat64
	results := map[string]*WireResult{
		"sample":  sampleResult(),
		"zero":    {},
		"awkward": awkward,
	}
	elapsed := []time.Duration{
		0,                     // "0"
		999 * time.Nanosecond, // under a microsecond: still "0"
		7 * time.Microsecond,  // "0.007"
		2 * time.Millisecond,  // a whole number: "2", not "2.0"
		1500 * time.Microsecond,
		90 * time.Minute,
		math.MaxInt64, // 292 years stay short of an exponent
	}
	cellID := id(7).Hex()
	for name, wres := range results {
		for _, src := range []string{"simulated", "memo", "store"} {
			for _, d := range elapsed {
				var want bytes.Buffer
				enc := json.NewEncoder(&want)
				enc.SetIndent("", "  ")
				if err := enc.Encode(RunResponse{
					CellID: cellID, Source: src, ElapsedMS: float64(d.Microseconds()) / 1000, Result: wres,
				}); err != nil {
					t.Fatal(err)
				}
				result, err := encodeResult(wres)
				if err != nil {
					t.Fatal(err)
				}
				rec := httptest.NewRecorder()
				writeRun(rec, cellID, src, d, result)
				if got := rec.Body.Bytes(); !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("%s/%s/%v: spliced reply differs from the encoder's:\n%s\nwant\n%s", name, src, d, got, want.Bytes())
				}
				if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(want.Len()) {
					t.Errorf("%s/%s/%v: Content-Length %q for %d bytes", name, src, d, cl, want.Len())
				}
				if rec.Header().Get("X-Cell-Id") != cellID || rec.Header().Get("Content-Type") != "application/json" {
					t.Errorf("%s/%s/%v: headers %v", name, src, d, rec.Header())
				}
			}
		}
	}
}

// storeTimes maps every file and directory under a store to its
// modification time.
func storeTimes(t *testing.T, s *Store) map[string]time.Time {
	t.Helper()
	out := map[string]time.Time{}
	err := filepath.WalkDir(s.Dir(), func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		out[p] = info.ModTime()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMemoHitTouchesNoDisk: the store is written when a cell is
// simulated and a memo hit leaves it alone — no write observed, nothing
// under the store directory modified, a span tree of run → memo and
// nothing else. So a blob lost under a warm memo stays lost until the
// cell is simulated again, which a restart does.
func TestMemoHitTouchesNoDisk(t *testing.T) {
	store := testStore(t)
	w := newFakeWorker(t, store)
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()
	body := `{"bench":"telco","vm":"pypy"}`

	_, rr, raw1 := postWorkerRun(t, ts, body)
	if rr.Source != "simulated" {
		t.Fatalf("first request source %q", rr.Source)
	}
	if n := store.m.writeNS.Snapshot().Count; n != 1 {
		t.Fatalf("%d store writes observed after one simulation, want 1", n)
	}
	before := storeTimes(t, store)

	_, rr, raw2 := postWorkerRun(t, ts, body)
	if rr.Source != "memo" {
		t.Fatalf("second request source %q", rr.Source)
	}
	if n := store.m.writeNS.Snapshot().Count; n != 1 {
		t.Errorf("cluster_store_write_ns counts %d writes after a memo hit, want 1 still", n)
	}
	if after := storeTimes(t, store); len(after) != len(before) {
		t.Errorf("a memo hit changed the store directory: %d entries, were %d", len(after), len(before))
	} else {
		for p, at := range before {
			if !after[p].Equal(at) {
				t.Errorf("a memo hit modified %s", p)
			}
		}
	}
	tree := w.ReqTrace().Trees(1)[0]
	var kinds []string
	for _, s := range tree.Spans {
		kinds = append(kinds, s.Kind)
	}
	if got := strings.Join(kinds, " "); got != reqtrace.KindRun+" "+reqtrace.KindMemo {
		t.Errorf("memo hit's spans are %q, want run and memo only", got)
	} else if tree.Spans[1].Parent != tree.Spans[0].ID {
		t.Error("the memo span is not the run span's child")
	}

	// The blob disappears under the warm memo: hits go on, and do not
	// bring it back.
	for p := range before {
		if filepath.Ext(p) == ".mtjs" {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, rr, _ := postWorkerRun(t, ts, body); rr.Source != "memo" {
		t.Fatalf("source %q with the blob deleted, want memo", rr.Source)
	}
	if n, _ := store.Len(); n != 0 {
		t.Fatalf("a memo hit rewrote the blob (%d in the store)", n)
	}
	// A restarted worker over that directory has neither memo nor blob:
	// it simulates, and that writes the store again.
	w2 := newFakeWorker(t, store)
	ts2 := httptest.NewServer(w2.Handler())
	defer ts2.Close()
	_, rr, raw3 := postWorkerRun(t, ts2, body)
	if rr.Source != "simulated" {
		t.Fatalf("restarted worker source %q, want simulated", rr.Source)
	}
	if n, _ := store.Len(); n != 1 {
		t.Fatalf("the re-simulation left %d blobs, want 1", n)
	}
	if !bytes.Equal(resultBytes(t, raw1), resultBytes(t, raw2)) || !bytes.Equal(resultBytes(t, raw1), resultBytes(t, raw3)) {
		t.Fatal("result bytes differ between the simulation, the hit and the re-simulation")
	}
}

// TestHitRacingFresh: plain requests for one warm cell race fresh ones
// that evict it. Every reply carries the oracle's result and every
// source is the truth: a request that finds the cell gone simulates it,
// or joins the simulation, and says so. A simulation never runs
// unwatched behind a reply that says "memo", so the sources returned
// account for every simulation and equal the outcome counters.
func TestHitRacingFresh(t *testing.T) {
	w := newFakeWorker(t, nil)
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()
	oracle, err := fakeSimulate(bench.ByName("telco"), harness.VMPyPyJIT, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := FromResult(oracle).Encode()

	var simulated, memo, unwatched atomic.Int64
	gated := func(gate chan struct{}) {
		w.Runner().SetSimulate(func(p *bench.Program, kind harness.VMKind, opt harness.Options) (*harness.Result, error) {
			// The simulated path attaches both; a cell scheduled from any
			// other path has neither.
			if opt.ReqTrace == nil || opt.Live == nil {
				unwatched.Add(1)
			}
			<-gate
			return fakeSimulate(p, kind, opt)
		})
	}
	send := func(body string, n int) {
		for i := 0; i < n; i++ {
			resp, rr, raw := postWorkerRun(t, ts, body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, raw)
				return
			}
			if !bytes.Equal(rr.Result.Encode(), want) {
				t.Errorf("source %s: result differs from the oracle's", rr.Source)
			}
			switch rr.Source {
			case "simulated":
				simulated.Add(1)
			case "memo":
				memo.Add(1)
			default:
				t.Errorf("source %q from a worker with no store", rr.Source)
			}
		}
	}
	const plain, fresh = `{"bench":"telco","vm":"pypy"}`, `{"bench":"telco","vm":"pypy","fresh":true}`
	check := func(when string, sims, sent int64) {
		t.Helper()
		if n := unwatched.Load(); n != 0 {
			t.Errorf("%s: %d simulations ran with no ReqTrace/Live attached", when, n)
		}
		// Each eviction is followed by one simulation, which the fresh
		// request and the plain requests that found the cell gone share.
		if got := int64(w.Runner().Simulations()); got != sims || got > simulated.Load() {
			t.Errorf("%s: %d simulations, want %d; %d replies said simulated", when, got, sims, simulated.Load())
		}
		if got := int64(w.runSim.Value()); got != simulated.Load() {
			t.Errorf(`%s: outcome="simulated" counts %d, replies said it %d times`, when, got, simulated.Load())
		}
		if got := int64(w.runMemo.Value()); got != memo.Load() {
			t.Errorf(`%s: outcome="memo" counts %d, replies said it %d times`, when, got, memo.Load())
		}
		if got := simulated.Load() + memo.Load(); got != sent {
			t.Errorf("%s: %d replies counted, %d requests sent", when, got, sent)
		}
	}

	// Held in the gate: a fresh request has evicted the warm cell and its
	// re-simulation has not finished when a plain request arrives. There
	// is no memo to serve, and the reply says so.
	send(plain, 1)
	gate := make(chan struct{})
	gated(gate)
	var wg sync.WaitGroup
	for _, body := range []string{fresh, plain} {
		// Read before the request is sent: read after, a request that got
		// to its lookup first left nothing to wait for (a hang under -race).
		lookups := w.Runner().CacheStats().Requests
		wg.Add(1)
		go func(body string) {
			defer wg.Done()
			send(body, 1)
		}(body)
		// The fresh request has scheduled the cell, then the plain one has
		// joined it, when the Runner has counted their lookups.
		for w.Runner().CacheStats().Requests == lookups {
			time.Sleep(time.Millisecond)
		}
	}
	close(gate)
	wg.Wait()
	check("gated", 2, 3)
	if memo.Load() != 0 {
		t.Errorf("%d replies said memo while the cell was being re-simulated", memo.Load())
	}

	// Free-running, for the race detector: the same two kinds of request
	// as fast as they go.
	const hitters, perHitter, freshes = 8, 150, 150
	for h := 0; h < hitters; h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(plain, perHitter)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		send(fresh, freshes)
	}()
	wg.Wait()
	check("free-running", 2+freshes, 3+hitters*perHitter+freshes)
}
