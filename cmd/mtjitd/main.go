// Command mtjitd is the simulation-serving daemon. It has two servers
// and three mode names:
//
//	-mode single    (default) the run server on its own: memoizing
//	                runner, /metrics, live /vm views. It is -mode worker
//	                started without -store; nothing else differs.
//	-mode worker    the same run server as one shard of a cluster:
//	                simulates the cells routed to it, persists results in
//	                the shared content-addressed store (-store), sheds
//	                load with 429 past -max-pending, and drains gracefully
//	                on SIGTERM (finish in-flight, 503 new requests so the
//	                frontend fails over, then exit).
//	-mode frontend  the routing tier: consistent-hashes cells across
//	                -peers workers, dedups identical in-flight cells,
//	                retries/fails over along the ring, and propagates
//	                worker 429 backpressure to clients.
//
// Single/worker endpoints:
//
//	POST /run          {"bench":"telco","vm":"pypy-tiered"} — run (memoized);
//	                   replies cell_id, source (simulated|memo|store), result
//	GET  /metrics      Prometheus text exposition
//	GET  /healthz      liveness, drain state, cache statistics
//	POST /drain        stop accepting runs (what SIGTERM does first)
//	GET  /vm/phases    per-phase cycles/instrs/IPC of tracked runs
//	GET  /vm/traces    compiled trace/bridge and lower-tier code inventory, labeled
//	GET  /vm/warmup    per-tier work-fraction progress (SSE stream)
//	GET  /debug/pprof  Go runtime profiling
//	GET  /debug/reqtrace  flight recorder: recent request span trees
//	                      (JSON; ?format=chrome for a Chrome trace)
//
// The frontend serves /run, /healthz, /ring and the same /metrics,
// /debug/pprof and /debug/reqtrace. Every mode records request span
// trees into an always-on flight recorder (bounded ring;
// -reqtrace-trees) and dumps it on panic, drain, and store-corruption
// quarantine (-reqtrace-dump).
// See EXPERIMENTS.md "Cluster serving" for topology and failure
// semantics, "Request tracing & flight recorder" for the span taxonomy,
// and cmd/mtjitload for driving a cluster at saturation.
//
// Usage:
//
//	mtjitd -addr :8077
//	mtjitd -mode worker -addr :8101 -store /var/mtjit/store
//	mtjitd -mode frontend -addr :8100 -peers http://127.0.0.1:8101,http://127.0.0.1:8102
//	curl -s -X POST localhost:8100/run -d '{"bench":"telco","vm":"pypy"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"metajit/internal/cluster"
	"metajit/internal/reqtrace"
)

func main() {
	mode := flag.String("mode", "single", "single | worker | frontend (single is a worker started without -store)")
	addr := flag.String("addr", ":8077", "listen address")
	workers := flag.Int("workers", 0, "concurrent simulations (0: NumCPU)")
	maxPending := flag.Int("max-pending", 0, "run requests accepted at once before shedding with 429 (0: 4x workers)")
	liveInterval := flag.Int("live-interval", 0, "live-snapshot publish cadence in machine annotations (0: default; single and worker modes)")
	storeDir := flag.String("store", "", "content-addressed result store directory (empty: no persistence)")
	traceDir := flag.String("traces", "", "recorded-trace benchmark directory served in addition to the built-ins")
	name := flag.String("name", "", "worker name for telemetry (default: addr)")
	peers := flag.String("peers", "", "comma-separated worker base URLs (frontend mode)")
	replicas := flag.Int("replicas", 0, "virtual nodes per worker on the hash ring (0: default)")
	attempts := flag.Int("attempts", 0, "distinct workers tried per request before giving up (0: all)")
	drainWait := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound for in-flight requests")
	flightN := flag.Int("reqtrace-trees", 0, "completed span trees kept in the flight-recorder ring (0: default)")
	dumpDir := flag.String("reqtrace-dump", "", "directory for flight-recorder anomaly dumps (empty: stderr)")
	flag.Parse()

	// One flight recorder per process, named for its role; every mode
	// serves it at /debug/reqtrace and dumps it on panic and (workers)
	// drain.
	newRec := func(process string) *reqtrace.Recorder {
		return reqtrace.NewRecorder(reqtrace.Config{
			Process:  process,
			Capacity: *flightN,
			DumpDir:  *dumpDir,
		})
	}

	var handler http.Handler
	var onShutdown func()
	switch *mode {
	case "single", "worker":
		catalog, err := cluster.NewCatalog(*traceDir)
		if err != nil {
			fatal(err)
		}
		var store *cluster.Store
		if *storeDir != "" {
			if store, err = cluster.OpenStore(*storeDir); err != nil {
				fatal(err)
			}
		}
		wname := *name
		if wname == "" {
			wname = *addr
		}
		w := cluster.NewWorker(cluster.WorkerConfig{
			Name:                  wname,
			Workers:               *workers,
			MaxPending:            *maxPending,
			Store:                 store,
			Catalog:               catalog,
			InstallStackTelemetry: true,
			ReqTrace:              newRec("worker-" + wname),
			LiveInterval:          *liveInterval,
		})
		handler = w.Handler()
		// Drain before Shutdown: new requests 503 immediately (the
		// frontend fails them over) while Shutdown waits out in-flight
		// ones — the "finish in-flight, stop accepting, hand off" step.
		onShutdown = w.Drain
	case "frontend":
		if *peers == "" {
			fatal(errors.New("frontend mode needs -peers"))
		}
		catalog, err := cluster.NewCatalog(*traceDir)
		if err != nil {
			fatal(err)
		}
		f := cluster.NewFrontend(cluster.FrontendConfig{
			Workers:  strings.Split(*peers, ","),
			Replicas: *replicas,
			Attempts: *attempts,
			Catalog:  catalog,
			ReqTrace: newRec("frontend"),
		})
		handler = f.Handler()
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}

	hs := &http.Server{Addr: *addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "mtjitd: %s mode, listening on %s\n", *mode, *addr)

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "mtjitd: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "mtjitd: shutting down")
	if onShutdown != nil {
		onShutdown()
	}
	shctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := hs.Shutdown(shctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "mtjitd: shutdown: %v\n", err)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "mtjitd: %v\n", err)
	os.Exit(1)
}
