package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"

	"metajit/internal/harness"
	"metajit/internal/reqtrace"
	"metajit/internal/telemetry"
)

// WorkerConfig tunes the run server — a cluster worker, or, with no
// Store, the single-process daemon (mtjitd -mode single).
type WorkerConfig struct {
	// Name identifies the worker in telemetry and drain logs.
	Name string
	// Workers bounds concurrent simulations (<= 0: NumCPU).
	Workers int
	// MaxPending bounds /run requests in flight; beyond it the worker
	// sheds with 429 + Retry-After (<= 0: 4×Workers). The frontend
	// propagates the 429 to the client instead of retrying — a saturated
	// owner must not be hammered with duplicates.
	MaxPending int
	// Store persists finished results; nil disables persistence (the
	// in-memory memoizer still dedups within the process).
	Store *Store
	// Catalog resolves benchmark names; nil means built-ins only.
	Catalog *Catalog
	// InstallStackTelemetry wires the whole simulator stack
	// (harness.InstallTelemetry — process-global) into this worker's
	// registry. Set it for real daemons (one worker per process); leave
	// it off for in-process test clusters, where N workers would fight
	// over the global hook.
	InstallStackTelemetry bool
	// ReqTrace is the request tracer / flight recorder; nil gets a
	// default recorder named "worker-<Name>". Every /run request records
	// a span tree here, parented under the frontend's attempt span when
	// the request carries a traceparent header; a fresh simulation's
	// span additionally collects that run's VM phase spans.
	ReqTrace *reqtrace.Recorder
	// LiveInterval is the live-snapshot publish cadence in machine
	// annotations (<= 0: harness.DefaultLiveInterval).
	LiveInterval int
}

// Worker is the one run server: an HTTP daemon that simulates the cells
// sent to it through the memoizing Runner, serves previously computed
// cells from the shared content store when it has one, sheds load past
// its pending bound, and exposes live views of in-flight simulations
// (/vm/*). On drain it finishes in-flight requests and refuses new ones
// with 503 — the frontend's ring failover hands its cells to the
// successor, and the shared store means the successor never recomputes
// what this worker already finished.
type Worker struct {
	cfg      WorkerConfig
	reg      *telemetry.Registry
	rec      *reqtrace.Recorder
	runner   *harness.Runner
	live     *harness.LiveTracker
	store    *Store
	catalog  *Catalog
	started  time.Time
	pending  atomic.Int64
	draining atomic.Bool

	runSim   *telemetry.Counter
	runMemo  *telemetry.Counter
	runStore *telemetry.Counter
	runErr   *telemetry.Counter
	runShed  *telemetry.Counter
	runDrain *telemetry.Counter
	latency  *telemetry.Histogram
}

// NewWorker builds a worker and registers its metrics on a fresh
// registry.
func NewWorker(cfg WorkerConfig) *Worker {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 4 * workers
	}
	rec := cfg.ReqTrace
	if rec == nil {
		name := cfg.Name
		if name == "" {
			name = "anon"
		}
		rec = reqtrace.NewRecorder(reqtrace.Config{Process: "worker-" + name})
	}
	w := &Worker{
		cfg:     cfg,
		reg:     telemetry.NewRegistry(),
		rec:     rec,
		runner:  harness.NewRunner(workers),
		live:    harness.NewLiveTracker(cfg.LiveInterval),
		store:   cfg.Store,
		catalog: cfg.Catalog,
		started: time.Now(),
	}
	if cfg.InstallStackTelemetry {
		harness.InstallTelemetry(w.reg)
	}
	help := "Cell requests by outcome (simulated, memo, store, error, shed, draining)."
	w.runSim = w.reg.Counter("cluster_worker_requests_total", help, "outcome", "simulated")
	w.runMemo = w.reg.Counter("cluster_worker_requests_total", help, "outcome", "memo")
	w.runStore = w.reg.Counter("cluster_worker_requests_total", help, "outcome", "store")
	w.runErr = w.reg.Counter("cluster_worker_requests_total", help, "outcome", "error")
	w.runShed = w.reg.Counter("cluster_worker_requests_total", help, "outcome", "shed")
	w.runDrain = w.reg.Counter("cluster_worker_requests_total", help, "outcome", "draining")
	w.latency = w.reg.Histogram("cluster_worker_latency_micros", "Wall-clock /run latency in microseconds.")
	w.reg.Gauge("cluster_worker_max_pending", "Load-shedding threshold for concurrent run requests.").Set(int64(cfg.MaxPending))
	w.reg.GaugeFunc("cluster_worker_pending_runs", "Run requests currently being processed.", func() float64 {
		return float64(w.pending.Load())
	})
	w.reg.GaugeFunc("cluster_worker_draining", "1 while the worker is draining.", func() float64 {
		if w.draining.Load() {
			return 1
		}
		return 0
	})
	w.reg.GaugeFunc("cluster_worker_uptime_seconds", "Seconds since the worker started.", func() float64 {
		return time.Since(w.started).Seconds()
	})
	w.reg.GaugeFunc("cluster_worker_goroutines", "Goroutines in the worker process.", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	if w.store != nil {
		w.store.InstallTelemetry(w.reg)
	}
	return w
}

// Registry exposes the worker's telemetry registry.
func (w *Worker) Registry() *telemetry.Registry { return w.reg }

// ReqTrace exposes the worker's request tracer / flight recorder.
func (w *Worker) ReqTrace() *reqtrace.Recorder { return w.rec }

// Runner exposes the memoizing runner (tests swap its executor).
func (w *Worker) Runner() *harness.Runner { return w.runner }

// Drain flips the worker into drain mode: new /run requests get 503
// "draining" (the frontend fails them over), in-flight ones finish.
// The caller (cmd/mtjitd on SIGTERM, or a test) then waits for the
// HTTP server's graceful shutdown. The first drain dumps the flight
// recorder — the span trees leading into a drain are exactly what a
// post-mortem of a misbehaving worker wants.
func (w *Worker) Drain() {
	if w.draining.CompareAndSwap(false, true) {
		w.rec.Anomaly("drain")
	}
}

// Draining reports drain mode.
func (w *Worker) Draining() bool { return w.draining.Load() }

// Pending reports requests currently being processed (tests).
func (w *Worker) Pending() int64 { return w.pending.Load() }

// Handler returns the worker's HTTP mux.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", w.handleRun)
	mux.HandleFunc("/healthz", w.handleHealthz)
	mux.HandleFunc("/drain", w.handleDrain)
	mux.HandleFunc("/vm/phases", w.handlePhases)
	mux.HandleFunc("/vm/traces", w.handleTraces)
	mux.HandleFunc("/vm/warmup", w.handleWarmup)
	return withProcessEndpoints(mux, w.reg, w.rec)
}

// withProcessEndpoints mounts what every serving process exposes about
// itself — /metrics, /debug/pprof/*, the /debug/reqtrace flight
// recorder — and wraps the mux so a panicking handler dumps the flight
// ring before answering 500 (reqtrace.PanicDump).
func withProcessEndpoints(mux *http.ServeMux, reg *telemetry.Registry, rec *reqtrace.Recorder) http.Handler {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// A write error here means the scraper hung up mid-scrape; the
		// headers are already gone, so there is nothing further to report.
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/reqtrace", rec.Handler())
	return reqtrace.PanicDump(rec, mux)
}

// RunResponse is the worker's POST /run reply (and, passed through
// verbatim, the frontend's). Result is the deterministic payload — for
// one cell its JSON bytes are identical no matter which worker served
// it, from which source, at what time. Source and ElapsedMS describe
// this particular serving and sit outside Result for exactly that
// reason.
type RunResponse struct {
	CellID    string      `json:"cell_id"`
	Source    string      `json:"source"` // "simulated", "memo", "store"
	ElapsedMS float64     `json:"elapsed_ms"`
	Result    *WireResult `json:"result"`
}

func (w *Worker) handleRun(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(rw, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if w.draining.Load() {
		w.runDrain.Inc()
		// A terminal drain span, joined to the caller's trace: the
		// frontend's failover tree shows exactly which worker refused.
		w.rec.StartTrace(reqtrace.FromHTTP(r), reqtrace.KindDrain, "").
			EndErr(errors.New("draining"))
		httpError(rw, http.StatusServiceUnavailable, "draining")
		return
	}
	// Admission control before any work. The bound covers requests being
	// processed (queued on the runner's worker pool included), so a flood
	// degrades to fast 429s instead of an unbounded goroutine pile-up, and
	// the frontend propagates them instead of retrying into the saturation.
	if n := w.pending.Add(1); n > int64(w.cfg.MaxPending) {
		w.pending.Add(-1)
		w.runShed.Inc()
		// The terminal shed span: backpressure is this request's whole
		// story in this process — by design it is never retried.
		w.rec.StartTrace(reqtrace.FromHTTP(r), reqtrace.KindShed, "").
			EndErr(errors.New("run queue full"))
		rw.Header().Set("Retry-After", "1")
		httpError(rw, http.StatusTooManyRequests, "run queue full")
		return
	}
	defer w.pending.Add(-1)

	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		w.runErr.Inc()
		httpError(rw, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	// The run span is the worker's root, parented under the frontend's
	// attempt span when the request propagated a trace context.
	root := w.rec.StartTrace(reqtrace.FromHTTP(r), reqtrace.KindRun, req.Bench+"/"+req.VM)
	p, kind, opt, id, err := w.catalog.Cell(&req)
	if err != nil {
		w.runErr.Inc()
		root.EndErr(err)
		httpError(rw, http.StatusBadRequest, err.Error())
		return
	}
	root.Annotate("cell", id.Hex())

	start := time.Now()
	if req.Fresh {
		w.runner.Evict(p, kind, opt)
	}
	src := "simulated"
	var wres *WireResult
	if !req.Fresh {
		if w.runner.Has(p, kind, opt) {
			src = "memo"
		} else if wres = w.fromStore(id, root); wres != nil {
			src = "store"
		}
	}
	if wres == nil {
		spanKind := reqtrace.KindSimulate
		if src == "memo" {
			spanKind = reqtrace.KindMemo
		}
		sp := root.StartChild(spanKind, req.Bench+"/"+req.VM)
		if src == "simulated" {
			// A real simulation: link the run's VM phase spans to this
			// request and publish its live snapshots. ReqTrace and Live are
			// excluded from the memo CellKey, so the watched result stays
			// byte-identical to an unwatched one.
			opt.ReqTrace = sp
			opt.Live = w.live
		}
		res, err := w.runner.Get(p, kind, opt)
		if err != nil {
			w.runErr.Inc()
			sp.EndErr(err)
			root.EndErr(err)
			httpError(rw, http.StatusInternalServerError, err.Error())
			return
		}
		sp.End()
		wres = FromResult(res)
		if w.store != nil {
			ws := root.StartChild(reqtrace.KindStoreWrite, id.Short())
			// A failed write only costs the next restart a re-simulation.
			ws.EndErr(w.store.Put(id, wres.Encode()))
		}
	}
	root.Annotate("source", src)
	root.End()
	switch src {
	case "simulated":
		w.runSim.Inc()
	case "memo":
		w.runMemo.Inc()
	case "store":
		w.runStore.Inc()
	}
	w.latency.Observe(uint64(time.Since(start).Microseconds()))
	rw.Header().Set("X-Cell-Id", id.Hex())
	writeJSON(rw, RunResponse{
		CellID:    id.Hex(),
		Source:    src,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		Result:    wres,
	})
}

// fromStore fetches and decodes a stored result; any corruption (blob
// or payload level) has already been quarantined by the store — the
// caller transparently falls back to re-simulation, which repairs the
// store on the way out. The read is recorded as a store_read span under
// parent (miss vs. corruption in its error); a quarantine additionally
// records a quarantine span and dumps the flight ring (Anomaly) — the
// span trees leading into a corruption event are post-mortem evidence.
func (w *Worker) fromStore(id CellID, parent *reqtrace.Span) *WireResult {
	if w.store == nil {
		return nil
	}
	sp := parent.StartChild(reqtrace.KindStoreRead, id.Short())
	payload, err := w.store.Get(id)
	if err != nil {
		sp.EndErr(err)
		if errors.Is(err, ErrCorrupt) {
			parent.StartChild(reqtrace.KindQuarantine, id.Short()).EndErr(err)
			w.rec.Anomaly("quarantine")
		}
		return nil
	}
	res, err := DecodeResult(payload)
	if err != nil {
		// CRC passed but the payload doesn't parse (e.g. a stale wire
		// version would have been a miss; this is a true collision-class
		// event). Treat like corruption: never serve it.
		sp.EndErr(fmt.Errorf("stored payload undecodable: %w", err))
		return nil
	}
	sp.End()
	return res
}

func (w *Worker) handleHealthz(rw http.ResponseWriter, r *http.Request) {
	if w.draining.Load() {
		rw.WriteHeader(http.StatusServiceUnavailable)
	}
	stats := w.runner.CacheStats()
	writeJSON(rw, map[string]any{
		"ok":             !w.draining.Load(),
		"name":           w.cfg.Name,
		"draining":       w.draining.Load(),
		"uptime_seconds": time.Since(w.started).Seconds(),
		"active_runs":    w.live.Active(),
		"pending":        w.pending.Load(),
		"cache": map[string]any{
			"requests":  stats.Requests,
			"hits":      stats.Hits,
			"misses":    stats.Misses,
			"evictions": stats.Evictions,
			"hit_rate":  stats.HitRate(),
		},
	})
}

// handleDrain lets an operator (or the frontend during a planned
// rebalance) start a drain remotely.
func (w *Worker) handleDrain(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(rw, http.StatusMethodNotAllowed, "POST only")
		return
	}
	w.Drain()
	writeJSON(rw, map[string]any{"draining": true, "pending": w.pending.Load()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Client hung up mid-write; headers are gone, nothing to report.
		_ = err
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{"error": msg})
}
