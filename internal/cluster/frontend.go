package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"metajit/internal/reqtrace"
	"metajit/internal/telemetry"
)

// FrontendConfig tunes the cluster frontend.
type FrontendConfig struct {
	// Workers are the worker base URLs (e.g. http://127.0.0.1:8101) —
	// the ring members. Order is irrelevant: placement depends only on
	// the sorted member set.
	Workers []string
	// Replicas is the virtual-node count per worker (<= 0:
	// DefaultReplicas).
	Replicas int
	// Attempts bounds how many distinct workers a request may try
	// (primary + failovers). <= 0 tries every worker once.
	Attempts int
	// Backoff is the wait before each failover attempt, growing
	// linearly: attempt k waits k×Backoff (<= 0: 25ms). Failover never
	// re-tries a worker that already answered this request.
	Backoff time.Duration
	// RequestTimeout bounds one upstream attempt (<= 0: 2m — cells are
	// whole simulations, not microservice calls).
	RequestTimeout time.Duration
	// Client issues upstream requests; nil uses http.DefaultTransport.
	// chaostest swaps in a fault-injecting transport here.
	Client *http.Client
	// Catalog resolves benchmark names; must agree with the workers'.
	Catalog *Catalog
	// ReqTrace is the request tracer / flight recorder; nil gets a
	// default recorder named "frontend". Every /run request records a
	// span tree here (joined to the client's trace when the request
	// carries a traceparent header), retrievable at /debug/reqtrace.
	ReqTrace *reqtrace.Recorder
}

// Frontend is the cluster's routing tier: it consistent-hashes each
// cell to its owning worker, coalesces identical concurrent requests
// into one upstream call (singleflight — the cluster-wide dedup point),
// fails over along the ring with backoff when a worker is dead or
// draining, and propagates a saturated owner's 429 + Retry-After to the
// client rather than retrying — backpressure must reach the edge, not
// turn into a retry storm on a worker that just said "stop".
type Frontend struct {
	cfg    FrontendConfig
	ring   *Ring
	client *http.Client
	sf     Group
	reg    *telemetry.Registry
	rec    *reqtrace.Recorder

	reqOK     *telemetry.Counter
	reqShed   *telemetry.Counter
	reqBad    *telemetry.Counter
	reqFail   *telemetry.Counter
	dedup     *telemetry.Counter
	failovers *telemetry.Counter
	retries   *telemetry.Counter
	latency   *telemetry.Histogram
	sfWait    *telemetry.Histogram
	started   time.Time
}

// NewFrontend builds a frontend over the configured workers.
func NewFrontend(cfg FrontendConfig) *Frontend {
	if cfg.Attempts <= 0 {
		cfg.Attempts = len(cfg.Workers)
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 25 * time.Millisecond
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 2 * time.Minute
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	rec := cfg.ReqTrace
	if rec == nil {
		rec = reqtrace.NewRecorder(reqtrace.Config{Process: "frontend"})
	}
	f := &Frontend{
		cfg:     cfg,
		ring:    NewRing(cfg.Workers, cfg.Replicas),
		client:  client,
		reg:     telemetry.NewRegistry(),
		rec:     rec,
		started: time.Now(),
	}
	help := "Frontend run requests by outcome (ok, shed, client_error, upstream_error)."
	f.reqOK = f.reg.Counter("cluster_frontend_requests_total", help, "outcome", "ok")
	f.reqShed = f.reg.Counter("cluster_frontend_requests_total", help, "outcome", "shed")
	f.reqBad = f.reg.Counter("cluster_frontend_requests_total", help, "outcome", "client_error")
	f.reqFail = f.reg.Counter("cluster_frontend_requests_total", help, "outcome", "upstream_error")
	f.dedup = f.reg.Counter("cluster_frontend_dedup_total", "Requests coalesced onto an identical in-flight cell (singleflight).")
	f.failovers = f.reg.Counter("cluster_frontend_failovers_total", "Upstream attempts that moved to a ring successor after a worker failure or drain.")
	f.retries = f.reg.Counter("cluster_failover_retries", "Retried upstream attempts: dispatches re-issued to another worker after a transport failure, 5xx, or drain.")
	f.latency = f.reg.Histogram("cluster_frontend_latency_micros", "End-to-end /run latency in microseconds.")
	f.sfWait = f.reg.Histogram("cluster_singleflight_wait_ns", "Nanoseconds coalesced requests spent waiting on another request's in-flight upstream call.")
	f.reg.GaugeFunc("cluster_frontend_inflight_cells", "Distinct cells currently in flight upstream.", func() float64 {
		return float64(f.sf.Inflight())
	})
	f.reg.Gauge("cluster_frontend_workers", "Configured ring members.").Set(int64(len(f.ring.Members())))
	return f
}

// Registry exposes the frontend's telemetry registry.
func (f *Frontend) Registry() *telemetry.Registry { return f.reg }

// ReqTrace exposes the frontend's request tracer / flight recorder.
func (f *Frontend) ReqTrace() *reqtrace.Recorder { return f.rec }

// Ring exposes the routing ring (tests pin shard layouts against it).
func (f *Frontend) Ring() *Ring { return f.ring }

// Handler returns the frontend's HTTP mux.
func (f *Frontend) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", f.handleRun)
	mux.HandleFunc("/healthz", f.handleHealthz)
	mux.HandleFunc("/ring", f.handleRing)
	return withProcessEndpoints(mux, f.reg, f.rec)
}

// upstream is the outcome of one routed request: enough to replay the
// worker's answer to every coalesced client byte-identically.
type upstream struct {
	status     int
	retryAfter string
	body       []byte
}

func (f *Frontend) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	req, err := decodeRequest(w, r)
	if err != nil {
		f.reqBad.Inc()
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	_, _, _, id, err := f.cfg.Catalog.Cell(&req)
	if err != nil {
		f.reqBad.Inc()
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	body, err := json.Marshal(&req)
	if err != nil {
		f.reqBad.Inc()
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	// The route span is the frontend's root: joined to the client's
	// trace when the request carries a traceparent header, a fresh trace
	// otherwise. The trace context rides HTTP headers only — the request
	// body (the singleflight/dedup key material) stays untouched, so
	// tracing cannot split coalescing or change any result byte.
	root := f.rec.StartTrace(reqtrace.FromHTTP(r), reqtrace.KindRoute, req.Bench+"/"+req.VM)
	root.Annotate("cell", id.Hex())

	start := time.Now()
	var (
		up     *upstream
		shared bool
	)
	if req.Fresh {
		// Fresh forces a re-simulation; coalescing it with an ordinary
		// request would silently drop the forcing.
		up, err = f.dispatch(r.Context(), id, body, root)
	} else {
		// Provisionally a lead; renamed to a wait if the singleflight
		// reports we coalesced onto someone else's in-flight call (then
		// the span has no dispatch children — the lead's tree has them).
		sf := root.StartChild(reqtrace.KindSingleflightLead, id.Short())
		var v any
		v, shared, err = f.sf.Do(r.Context(), id.Hex(), func() (any, error) {
			// The dispatch context is the singleflight's, not any one
			// client's: a canceled client must not kill the shared call.
			return f.dispatch(context.Background(), id, body, sf)
		})
		if err == nil {
			up = v.(*upstream)
		}
		if shared {
			sf.SetKind(reqtrace.KindSingleflightWait)
			f.sfWait.Observe(uint64(time.Since(start).Nanoseconds()))
		}
		sf.EndErr(err)
	}
	if shared {
		f.dedup.Inc()
	}
	if err != nil {
		f.reqFail.Inc()
		code := http.StatusBadGateway
		if r.Context().Err() != nil {
			code = 499 // client closed request (nginx convention)
		}
		root.Annotate("status", strconv.Itoa(code))
		root.EndErr(err)
		httpError(w, code, err.Error())
		return
	}
	f.latency.Observe(uint64(time.Since(start).Microseconds()))
	switch {
	case up.status == http.StatusOK:
		f.reqOK.Inc()
	case up.status == http.StatusTooManyRequests:
		f.reqShed.Inc()
		// The terminal shed span: backpressure reached the edge and this
		// request ends here, by design — never retried.
		shed := root.StartChild(reqtrace.KindShed, req.Bench+"/"+req.VM)
		shed.Annotate("retry_after", up.retryAfter)
		shed.End()
	default:
		f.reqFail.Inc()
	}
	root.Annotate("status", strconv.Itoa(up.status))
	if up.status == http.StatusOK {
		root.End()
	} else {
		root.EndErr(fmt.Errorf("status %d", up.status))
	}
	if up.retryAfter != "" {
		w.Header().Set("Retry-After", up.retryAfter)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(up.body)))
	w.WriteHeader(up.status)
	_, _ = w.Write(up.body)
}

// dispatch routes one cell along its ring successor list.
//
// Failure policy, in order of what the upstream said:
//   - transport error, 5xx, or drain 503: the worker is gone or going —
//     fail over to the next distinct successor after a linear backoff.
//     The shared store makes this safe and cheap: if the dead primary
//     already finished the cell in a previous life, the successor serves
//     it from the store without re-simulating.
//   - 429: the owner is saturated. Propagated to the client verbatim
//     (with Retry-After); never retried — not on the same worker (that
//     is the regression the tests pin) and not on a successor, because
//     routing shed load to non-owners would recompute cells that the
//     owner will have memoized moments later.
//   - any other status (200, 400...): authoritative; returned as-is.
func (f *Frontend) dispatch(ctx context.Context, id CellID, body []byte, parent *reqtrace.Span) (*upstream, error) {
	succ := f.ring.Successors(id, f.cfg.Attempts)
	if len(succ) == 0 {
		return nil, fmt.Errorf("no workers configured")
	}
	var lastErr error
	for attempt, wkr := range succ {
		if attempt > 0 {
			f.failovers.Inc()
			f.retries.Inc()
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(time.Duration(attempt) * f.cfg.Backoff):
			}
		}
		// Attempts are siblings under the dispatch parent: a request that
		// survived a failover shows attempt #0 (failed) next to attempt
		// #1 (served) in one connected tree.
		att := parent.StartChild(reqtrace.KindAttempt, wkr)
		up, err := f.tryWorker(ctx, wkr, body, att)
		if err != nil {
			att.EndErr(err)
			lastErr = fmt.Errorf("%s: %w", wkr, err)
			continue
		}
		if up.status >= 500 {
			att.EndErr(fmt.Errorf("upstream status %d", up.status))
			lastErr = fmt.Errorf("%s: upstream status %d", wkr, up.status)
			continue
		}
		att.Annotate("status", strconv.Itoa(up.status))
		att.End()
		return up, nil
	}
	return nil, fmt.Errorf("all %d workers failed, last: %w", len(succ), lastErr)
}

func (f *Frontend) tryWorker(ctx context.Context, worker string, body []byte, att *reqtrace.Span) (*upstream, error) {
	actx, cancel := context.WithTimeout(ctx, f.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, strings.TrimSuffix(worker, "/")+"/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	// Propagate the trace so the worker's run tree parents under this
	// attempt. Header-only: the body bytes workers hash and coalesce on
	// are identical with and without tracing.
	reqtrace.Inject(req.Header, att.Context())
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := readUpstream(resp)
	if err != nil {
		return nil, err
	}
	return &upstream{
		status:     resp.StatusCode,
		retryAfter: resp.Header.Get("Retry-After"),
		body:       b,
	}, nil
}

// maxUpstreamBody bounds a worker's reply; a /run reply is about 7 KB.
const maxUpstreamBody = 8 << 20

// readUpstream reads a worker's reply into one buffer of its declared
// length, or, when none is declared, up to the bound. A reply over the
// bound or shorter than it declared is an error — the worker is treated
// as failed — and is never passed on cut short.
func readUpstream(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n > maxUpstreamBody {
		return nil, fmt.Errorf("upstream declares a %d-byte body, over the %d-byte bound", n, maxUpstreamBody)
	}
	if n >= 0 {
		b := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, b); err != nil {
			return nil, fmt.Errorf("reading the %d-byte upstream body: %w", n, err)
		}
		return b, nil
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxUpstreamBody+1))
	if err != nil {
		return nil, err
	}
	if len(b) > maxUpstreamBody {
		return nil, fmt.Errorf("upstream body over the %d-byte bound", maxUpstreamBody)
	}
	return b, nil
}

func (f *Frontend) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"ok":             true,
		"uptime_seconds": time.Since(f.started).Seconds(),
		"workers":        f.ring.Members(),
		"inflight_cells": f.sf.Inflight(),
	})
}

// handleRing answers "who owns this cell": the full failover sequence
// for a (bench, vm) pair — an operator's routing debugger.
func (f *Frontend) handleRing(w http.ResponseWriter, r *http.Request) {
	req := Request{Bench: r.URL.Query().Get("bench"), VM: r.URL.Query().Get("vm")}
	_, _, _, id, err := f.cfg.Catalog.Cell(&req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, map[string]any{
		"cell_id":    id.Hex(),
		"owner":      f.ring.Lookup(id),
		"successors": f.ring.Successors(id, len(f.ring.Members())),
	})
}
