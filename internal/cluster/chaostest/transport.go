// Package chaostest is the cluster's fault-injection test layer: an
// in-process cluster harness whose frontend→worker RPCs pass through a
// seedable chaos transport. Fault schedules — worker kills and
// restarts, RPCs dropped before or after delivery, injected delays,
// store blob corruption — are deterministic functions of a seed, so a
// failing schedule replays exactly.
//
// The invariant every schedule is checked against is the cluster's one
// promise: every accepted (HTTP 200) response carries the byte-identical
// result the single-process memoizer would have produced for that cell.
// Requests may fail, shed, or time out under chaos; they may never lie.
package chaostest

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"
)

// Plan sets the per-RPC fault probabilities of a chaos transport.
type Plan struct {
	// DropBefore is the probability an RPC is dropped before reaching
	// the worker — the classic lost request.
	DropBefore float64
	// DropAfter is the probability the RPC is delivered and processed
	// but its reply is lost — the nastier case, because the work (and
	// any store write) happened. Retries must be idempotent against it.
	DropAfter float64
	// MaxDelay injects a uniform [0, MaxDelay) latency per RPC.
	MaxDelay time.Duration
}

// Stats counts what the transport actually did.
type Stats struct {
	Delivered     int
	DroppedBefore int
	DroppedAfter  int
	Refused       int // RPCs to a killed worker
}

// Transport is an http.RoundTripper that dispatches requests to
// in-process worker handlers by host name, injecting faults per Plan.
//
// Fault decisions are a pure function of (seed, host, path, request
// body, per-key attempt number): the same schedule replays bit-for-bit
// for a given request sequence, and a retried RPC re-rolls (attempt
// number advances) so a drop is transient, not a black hole.
type Transport struct {
	mu       sync.Mutex
	handlers map[string]http.Handler
	down     map[string]bool
	seed     int64
	plan     Plan
	attempts map[string]int
	stats    Stats
}

// NewTransport builds a chaos transport with the given seed and plan.
func NewTransport(seed int64, plan Plan) *Transport {
	return &Transport{
		handlers: map[string]http.Handler{},
		down:     map[string]bool{},
		seed:     seed,
		plan:     plan,
		attempts: map[string]int{},
	}
}

// Register wires host to an in-process handler (and revives it if it
// was down).
func (t *Transport) Register(host string, h http.Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handlers[host] = h
	delete(t.down, host)
}

// Kill makes every subsequent RPC to host fail like a dead process
// (connection refused). In-flight handler calls finish — exactly like a
// SIGKILL racing an almost-written reply, which the DropAfter fault
// models directly.
func (t *Transport) Kill(host string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.down[host] = true
}

// Stats returns a snapshot of fault counts.
func (t *Transport) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// rolls derives three uniform [0,1) variates from the fault key — the
// deterministic core of the schedule.
func rolls(seed int64, key string, attempt int) (a, b, c float64) {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d|%s|%d", seed, key, attempt)))
	u := func(off int) float64 {
		return float64(binary.BigEndian.Uint64(h[off:off+8])>>11) / float64(1<<53)
	}
	return u(0), u(8), u(16)
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil {
		var err error
		if body, err = io.ReadAll(req.Body); err != nil {
			return nil, err
		}
		req.Body.Close()
	}
	host := req.URL.Host

	t.mu.Lock()
	h, ok := t.handlers[host]
	if !ok {
		t.mu.Unlock()
		return nil, fmt.Errorf("chaostest: unknown host %q", host)
	}
	if t.down[host] {
		t.stats.Refused++
		t.mu.Unlock()
		return nil, fmt.Errorf("chaostest: dial %s: connection refused", host)
	}
	key := host + "|" + req.URL.Path + "|" + string(body)
	n := t.attempts[key]
	t.attempts[key] = n + 1
	dropB, dropA, delayRoll := rolls(t.seed, key, n)
	plan := t.plan
	t.mu.Unlock()

	if plan.MaxDelay > 0 {
		time.Sleep(time.Duration(delayRoll * float64(plan.MaxDelay)))
	}
	if dropB < plan.DropBefore {
		t.count(func(s *Stats) { s.DroppedBefore++ })
		return nil, fmt.Errorf("chaostest: %s: connection reset (dropped before delivery)", host)
	}

	rec := httptest.NewRecorder()
	hreq := req.Clone(req.Context())
	hreq.Body = io.NopCloser(bytes.NewReader(body))
	h.ServeHTTP(rec, hreq)

	if dropA < plan.DropAfter {
		// The worker did the work (simulated, wrote the store) but the
		// reply evaporates — the caller cannot tell this from DropBefore.
		t.count(func(s *Stats) { s.DroppedAfter++ })
		return nil, fmt.Errorf("chaostest: %s: connection reset (reply lost after delivery)", host)
	}
	t.count(func(s *Stats) { s.Delivered++ })
	res := rec.Result()
	res.Request = req
	return res, nil
}

func (t *Transport) count(fn func(*Stats)) {
	t.mu.Lock()
	fn(&t.stats)
	t.mu.Unlock()
}
