package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
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

	encoded resultTable

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
		encoded: resultTable{m: map[CellID][]byte{}},
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

// encodeResult lays a result out as the "result" member of a
// RunResponse encoded with two-space indentation: the member sits one
// level deep, which is MarshalIndent with that level as the prefix.
func encodeResult(wres *WireResult) ([]byte, error) {
	return json.MarshalIndent(wres, "  ", "  ")
}

// resultTable holds, for every cell its worker has simulated, the bytes
// encodeResult gave: produced once when the simulation finishes and
// spliced into every later reply. The key is the content address of
// every input to the cell, so an entry could only ever be replaced by
// the same bytes and there is nothing to invalidate; fresh drops the
// entry with the Runner's cell and the re-simulation puts it back.
type resultTable struct {
	mu sync.Mutex
	m  map[CellID][]byte
}

func (t *resultTable) get(id CellID) []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[id]
}

// put encodes wres, enters it under id and returns the bytes.
func (t *resultTable) put(id CellID, wres *WireResult) ([]byte, error) {
	b, err := encodeResult(wres)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m[id] = b
	return b, nil
}

func (t *resultTable) drop(id CellID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.m, id)
}

// writeRun writes a 200 /run reply in one sized Write: the bytes
// json.Encoder with SetIndent("", "  ") gives for a RunResponse, with
// result — encodeResult's bytes — spliced in as they are. cellID is hex
// and source one of three words, so neither needs escaping; elapsed_ms
// is whole microseconds over 1000, so it is 0 or at least 0.001 and far
// below 1e21, the range in which encoding/json too prints the shortest
// round-tripping decimal without an exponent.
func writeRun(rw http.ResponseWriter, cellID, source string, elapsed time.Duration, result []byte) {
	buf := make([]byte, 0, len(result)+len(cellID)+128)
	buf = append(buf, "{\n  \"cell_id\": \""...)
	buf = append(buf, cellID...)
	buf = append(buf, "\",\n  \"source\": \""...)
	buf = append(buf, source...)
	buf = append(buf, "\",\n  \"elapsed_ms\": "...)
	buf = strconv.AppendFloat(buf, float64(elapsed.Microseconds())/1000, 'f', -1, 64)
	buf = append(buf, ",\n  \"result\": "...)
	buf = append(buf, result...)
	buf = append(buf, "\n}\n"...)
	h := rw.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Cell-Id", cellID)
	h.Set("Content-Length", strconv.Itoa(len(buf)))
	// A write error means the client hung up; there is no one to tell.
	_, _ = rw.Write(buf)
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

	req, err := decodeRequest(rw, r)
	if err != nil {
		w.runErr.Inc()
		httpError(rw, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	// The run span is the worker's root, parented under the frontend's
	// attempt span when the request propagated a trace context.
	label := req.Bench + "/" + req.VM
	root := w.rec.StartTrace(reqtrace.FromHTTP(r), reqtrace.KindRun, label)
	p, kind, opt, id, err := w.catalog.Cell(&req)
	if err != nil {
		w.runErr.Inc()
		root.EndErr(err)
		httpError(rw, http.StatusBadRequest, err.Error())
		return
	}
	hexID := id.Hex()
	root.Annotate("cell", hexID)

	start := time.Now()
	var (
		src    string
		result []byte // the reply's "result" member
	)
	if req.Fresh {
		w.runner.Evict(p, kind, opt)
		w.encoded.drop(id)
	} else if res := w.runner.Peek(p, kind, opt); res != nil {
		// The warm path: one lookup in the Runner and one here — no
		// reflection and no disk, the store was written when the cell was
		// simulated. The entry is missing only in a race: the request that
		// simulated the cell has not entered it yet, or a fresh one dropped
		// it after this request's Peek.
		src = "memo"
		sp := root.StartChild(reqtrace.KindMemo, label)
		if result = w.encoded.get(id); result == nil {
			result, err = w.encoded.put(id, FromResult(res))
		}
		sp.EndErr(err)
	} else if wres := w.fromStore(id, root); wres != nil {
		// Encoded for this reply only: another worker simulated the cell,
		// and clients read that off the source of every reply.
		src = "store"
		result, err = encodeResult(wres)
	}
	if src == "" {
		src = "simulated"
		sp := root.StartChild(reqtrace.KindSimulate, label)
		// Link the run's VM phase spans to this request and publish its
		// live snapshots. ReqTrace and Live are sinks (harness.Observe),
		// not part of the Spec: the watched result is the unwatched one.
		opt.ReqTrace = sp
		opt.Live = w.live
		var res *harness.Result
		res, err = w.runner.Get(p, kind, opt)
		sp.EndErr(err)
		if err == nil {
			wres := FromResult(res)
			if w.store != nil {
				ws := root.StartChild(reqtrace.KindStoreWrite, id.Short())
				// A failed write only costs the next restart a re-simulation.
				ws.EndErr(w.store.Put(id, wres.Encode()))
			}
			result, err = w.encoded.put(id, wres)
		}
	}
	if err != nil {
		w.runErr.Inc()
		root.EndErr(err)
		httpError(rw, http.StatusInternalServerError, err.Error())
		return
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
	writeRun(rw, hexID, src, time.Since(start), result)
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
