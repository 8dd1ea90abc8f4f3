package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"metajit/internal/cluster"
	"metajit/internal/harness"
	"metajit/internal/reqtrace"
	"metajit/internal/telemetry"
)

// serve is serve_mix: an in-process cluster over loopback HTTP, three
// workers of one simulation each sharing one store directory behind one
// frontend, and closed-loop clients. An operation is one request. A run is
//
//	cold rounds: empty store, fresh workers, every cell once -> "simulated"
//	store rounds: fresh workers over the filled store, every cell -> "store"
//	memo phase: the workers that simulated, Zipf-drawn cells -> "memo"
//
// and the simulating region is the cold rounds.
type serve struct {
	cells  []cell
	reqs   [][]byte // request body per cell
	oracle [][]byte // canonical WireResult per cell, from bare harness.Run
	instrs []float64
	sim    simStats
	bare   timed // the oracle's simulations, for cold_vs_bare_x

	catalog  *cluster.Catalog
	slots    []*slot  // one per worker URL
	stops    []func() // one per listener
	frontend *cluster.Frontend
	url      string // the frontend's
	client   *http.Client
	upstream *http.Transport
	dirs     []string // store directories to remove
}

const (
	serveWorkers = 3
	storeRounds  = 7 // after each cold round
	memoWarmup   = 500
	memoBlock    = 500 // requests per client between reference slices
	memoAtLeast  = 20  // blocks
	zipfS        = 1.1
)

// serveLoopback serves h on a free loopback port. stop closes the listener
// and every connection, and returns when the server goroutine has ended.
func serveLoopback(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // ErrServerClosed, after stop
	}()
	return "http://" + ln.Addr().String(), func() { _ = srv.Close(); <-done }, nil
}

// slot is a worker URL whose worker can be replaced: a restart keeps the
// address and loses the memo, as a process restart does.
type slot struct{ h atomic.Pointer[http.Handler] }

func (s *slot) ServeHTTP(w http.ResponseWriter, r *http.Request) { (*s.h.Load()).ServeHTTP(w, r) }

func (s *slot) set(h http.Handler) { s.h.Store(&h) }

func setupServe(e *env) (state, error) {
	s := &serve{cells: serveCells()}
	cat, err := cluster.NewCatalog("")
	if err != nil {
		return nil, err
	}
	s.catalog = cat

	// The oracle: every cell through bare harness.Run, no cluster code.
	s.bare = startTimed()
	for _, c := range s.cells {
		res, err := harness.Run(c.prog, c.kind, harness.Options{})
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(cluster.Request{Bench: c.prog.Name, VM: string(c.kind)})
		if err != nil {
			return nil, err
		}
		s.reqs = append(s.reqs, body)
		s.oracle = append(s.oracle, cluster.FromResult(res).Encode())
		s.instrs = append(s.instrs, float64(res.Instrs))
		s.sim.add(c.id(), res)
	}
	s.bare.stop()

	listen := func(h http.Handler) (string, error) {
		url, stop, err := serveLoopback(h)
		if err == nil {
			s.stops = append(s.stops, stop)
		}
		return url, err
	}
	var urls []string
	for i := 0; i < serveWorkers; i++ {
		sl := &slot{}
		sl.set(http.NotFoundHandler())
		s.slots = append(s.slots, sl)
		u, err := listen(sl)
		if err != nil {
			s.close()
			return nil, err
		}
		urls = append(urls, u)
	}
	s.upstream = &http.Transport{MaxIdleConnsPerHost: e.clients}
	s.frontend = cluster.NewFrontend(cluster.FrontendConfig{
		Workers: urls,
		Catalog: cat,
		Client:  &http.Client{Transport: s.upstream},
	})
	if s.url, err = listen(s.frontend.Handler()); err != nil {
		s.close()
		return nil, err
	}
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: e.clients}}
	return s, nil
}

func (s *serve) close() {
	for _, stop := range s.stops {
		stop()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
		s.upstream.CloseIdleConnections()
	}
	for _, d := range s.dirs {
		_ = os.RemoveAll(d)
	}
}

// outDir is where a run leaves its span file and keeps its store
// directories while it runs.
const outDir = "benchmark/out"

// tempStoreDir makes a fresh, empty store directory under outDir.
func tempStoreDir() (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "store-")
}

// restart puts fresh workers over dir behind every worker URL.
func (s *serve) restart(dir string) ([]*cluster.Worker, error) {
	ws := make([]*cluster.Worker, serveWorkers)
	for i := range ws {
		st, err := cluster.OpenStore(dir)
		if err != nil {
			return nil, err
		}
		ws[i] = cluster.NewWorker(cluster.WorkerConfig{
			Name: fmt.Sprintf("w%d", i), Workers: 1, Store: st, Catalog: s.catalog,
		})
		s.slots[i].set(ws[i].Handler())
	}
	return ws, nil
}

// request is one closed-loop request: when it was sent, how long until the
// whole response was read, and which cell it asked for.
type request struct {
	cell   int
	at     time.Time
	ns     float64
	source string // "simulated", "memo", "store", or "status N"
}

// post sends one request to the frontend and checks the response against the
// oracle; it returns the latency and "" or why the response is wrong.
func (s *serve) post(i int, wantSource string, known *sync.Map) (request, string) {
	r := request{cell: i, at: time.Now()}
	resp, err := s.client.Post(s.url+"/run", "application/json", bytes.NewReader(s.reqs[i]))
	if err != nil {
		return r, err.Error()
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.ns = float64(time.Since(r.at).Nanoseconds())
	if err != nil {
		return r, err.Error()
	}
	if resp.StatusCode != http.StatusOK {
		r.source = fmt.Sprintf("status %d", resp.StatusCode)
		return r, fmt.Sprintf("%s: status %d", s.cells[i].id(), resp.StatusCode)
	}
	var got struct {
		Source string          `json:"source"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return r, fmt.Sprintf("%s: %v", s.cells[i].id(), err)
	}
	r.source = got.Source
	if got.Source != wantSource {
		return r, fmt.Sprintf("%s: served from %q, want %q", s.cells[i].id(), got.Source, wantSource)
	}
	// A payload already proven equal to the oracle's is recognised by its
	// bytes; anything else is decoded and compared canonically, so a change
	// of JSON layout cannot fail a correct response.
	if ok, seen := known.Load(i); seen && bytes.Equal(ok.([]byte), got.Result) {
		return r, ""
	}
	var wr cluster.WireResult
	if err := json.Unmarshal(got.Result, &wr); err != nil {
		return r, fmt.Sprintf("%s: %v", s.cells[i].id(), err)
	}
	if !bytes.Equal(wr.Encode(), s.oracle[i]) {
		return r, fmt.Sprintf("%s: result differs from the bare harness.Run oracle", s.cells[i].id())
	}
	known.Store(i, []byte(got.Result))
	return r, ""
}

// drive runs the closed loop: each of e.clients goroutines takes the next
// cell from next() until it returns -1, and sends its following request
// only when the previous one has completed.
func (s *serve) drive(e *env, m *measurement, parent int, source string, known *sync.Map, next func(client int) int) []request {
	per := make([][]request, e.clients)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < e.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := next(c); i >= 0; i = next(c) {
				sp := e.tr.start(parent, "cluster", "POST /run", s.cells[i].id())
				r, why := s.post(i, source, known)
				e.tr.end(sp)
				if why != "" {
					mu.Lock()
					m.fail(why)
					mu.Unlock()
				}
				per[c] = append(per[c], r)
			}
		}(c)
	}
	wg.Wait()
	var all []request
	for _, p := range per {
		all = append(all, p...)
	}
	m.attempted += len(all)
	return all
}

// requestStream draws the cells one memo-phase client asks for: Zipf over a
// permutation of the cells, so that which cells are hot is the seed's choice
// and every client agrees on it.
func requestStream(seed int64, client, cells int) func() int {
	hot := order(rand.New(rand.NewSource(seed)), cells)
	z := rand.NewZipf(rand.New(rand.NewSource(seed*1000+int64(client))), zipfS, 1, uint64(cells-1))
	return func() int { return hot[z.Uint64()] }
}

// once hands every cell index out exactly once, in seeded order.
func once(rng *rand.Rand, n int) func(int) int {
	var next atomic.Int64
	perm := order(rng, n)
	return func(int) int {
		k := int(next.Add(1)) - 1
		if k >= n {
			return -1
		}
		return perm[k]
	}
}

func (s *serve) run(e *env) (*measurement, error) {
	m := &measurement{layer: map[string]float64{}, sim: s.sim}
	rng := rand.New(rand.NewSource(e.seed))
	known := &sync.Map{}
	budget := time.Duration(e.seconds * float64(time.Second))
	start := time.Now()
	cal := e.cal

	var (
		cold, store, memo []request
		rounds            []timed
		holders           []*cluster.Worker // the workers that hold the memo
	)
	flight := &flightSelf{map[string][]float64{}, map[string]bool{}}
	before := s.frontendCounters()
	// Cold rounds run minUnits+1 times (three in the untraced run): enough
	// cold requests for a p90, and a median over rounds.
	for round := 0; round <= e.minUnits; round++ {
		dir, err := tempStoreDir()
		if err != nil {
			return nil, err
		}
		s.dirs = append(s.dirs, dir)
		if holders, err = s.restart(dir); err != nil {
			return nil, err
		}
		sp := e.tr.start(e.root, "bench", "cold round", "")
		cal.burst(refAround)
		t := startTimed()
		cold = append(cold, s.drive(e, m, sp, "simulated", known, once(rng, len(s.cells)))...)
		t.stop()
		cal.burst(refAround)
		e.tr.end(sp)
		rounds = append(rounds, t)
		s.traceSelf(e, flight, holders)

		readers, err := s.restart(dir)
		if err != nil {
			return nil, err
		}
		sp = e.tr.start(e.root, "bench", "store rounds", "")
		for k := 0; k < storeRounds; k++ {
			cal.tick()
			store = append(store, s.drive(e, m, sp, "store", known, once(rng, len(s.cells)))...)
		}
		e.tr.end(sp)
		s.traceSelf(e, flight, readers)
	}

	// Memo phase, on the workers of the last cold round, until the time is
	// up: blocks of requests with a reference slice in between.
	for i, w := range holders {
		s.slots[i].set(w.Handler())
	}
	streams := make([]func() int, e.clients)
	for c := range streams {
		streams[c] = requestStream(e.seed, c, len(s.cells))
	}
	block := func(n int) func(int) int {
		left := make([]int, e.clients)
		for c := range left {
			left[c] = n
		}
		return func(c int) int {
			if left[c] == 0 {
				return -1
			}
			left[c]--
			return streams[c]()
		}
	}
	sp := e.tr.start(e.root, "bench", "memo phase", "")
	s.drive(e, m, sp, "memo", known, block(memoWarmup)) // connections and caches warm
	var memoWall float64
	for b := 0; b < memoAtLeast || time.Since(start) < budget; b++ {
		cal.slice()
		t := startTimed()
		reqs := s.drive(e, m, sp, "memo", known, block(memoBlock))
		t.stop()
		memo = append(memo, reqs...)
		memoWall += t.wall(cal)
	}
	cal.slice()
	e.tr.end(sp)
	s.traceSelf(e, flight, holders)

	// Latencies in reference ns. The end-to-end percentiles are over every
	// request of the run; the per-layer ones are per phase.
	scaled := func(rs []request) []float64 {
		out := make([]float64, len(rs))
		for i, r := range rs {
			out[i] = r.ns * cal.scale(r.at, r.at.Add(time.Duration(r.ns)))
		}
		return out
	}
	coldNs, storeNs, memoNs := scaled(cold), scaled(store), scaled(memo)
	m.opNs = append(append(append(m.opNs, coldNs...), storeNs...), memoNs...)

	walls, cpus, plain, mallocs := costs(rounds, cal)
	universe := sum(s.instrs)
	m.wallNsPerInstr = median(walls) / universe
	m.plainNsPerInstr = median(plain) / universe
	m.cpuNsPerInstr = median(cpus) / universe
	m.allocsPerKinstr = median(mallocs) / (universe / 1000)
	perCell := make([][]float64, len(s.cells))
	for i, r := range cold {
		perCell[r.cell] = append(perCell[r.cell], coldNs[i])
	}
	var perInstr []float64
	for i, ns := range perCell {
		if len(ns) > 0 {
			perInstr = append(perInstr, median(ns)/s.instrs[i])
		}
	}
	m.gmeanNsPerInstr = gmean(perInstr)

	l := m.layer
	cs, ss, ms := sorted(coldNs), sorted(storeNs), sorted(memoNs)
	l["cluster.cold_phase_s"] = median(walls) / 1e9
	l["cluster.cold_p50_ms"] = quantile(cs, 0.5) / 1e6
	l["cluster.cold_p90_ms"], _ = tailQuantile(cs, 0.9)
	l["cluster.cold_p90_ms"] /= 1e6
	l["cluster.cold_vs_bare_x"] = ratio(median(cpus), s.bare.cpu(cal))
	for name, q := range map[string]float64{"p50": 0.5, "p90": 0.9, "p99": 0.99} {
		l["cluster.store_"+name+"_us"], _ = tailQuantile(ss, q)
		l["cluster.store_"+name+"_us"] /= 1e3
		l["cluster.memo_"+name+"_us"], _ = tailQuantile(ms, q)
		l["cluster.memo_"+name+"_us"] /= 1e3
	}
	l["cluster.memo_rps"] = ratio(float64(len(memo)), memoWall/1e9)
	for _, rs := range [][]request{cold, store, memo} {
		for _, r := range rs {
			switch r.source {
			case "simulated", "memo", "store":
				l["cluster.served_"+r.source]++
			case "status 429":
				l["cluster.shed"]++
			}
		}
	}
	after := s.frontendCounters()
	l["cluster.failovers"] = after["cluster_frontend_failovers_total"] - before["cluster_frontend_failovers_total"]
	l["cluster.dedup"] = after["cluster_frontend_dedup_total"] - before["cluster_frontend_dedup_total"]
	for kind, us := range flight.us {
		l["cluster.self_us_"+kind] = sum(us) / float64(len(us))
	}
	return m, nil
}

// frontendCounters reads the frontend's registry the way a scrape would.
func (s *serve) frontendCounters() map[string]float64 {
	out := map[string]float64{}
	var buf bytes.Buffer
	if err := s.frontend.Registry().WritePrometheus(&buf); err != nil {
		return out
	}
	fams, err := telemetry.ParseText(&buf)
	if err != nil {
		return out
	}
	for name, f := range fams {
		for _, sm := range f.Samples {
			out[name] += sm.Value
		}
	}
	return out
}

// flightSelf collects, by span kind, the self time in µs of the spans the
// cluster's own flight recorders kept, and remembers which trees it took.
type flightSelf struct {
	us   map[string][]float64
	seen map[string]bool
}

// traceSelf, in the traced run, reads the flight recorders of the frontend
// and ws and collects the self time of every span, by kind, in µs.
func (s *serve) traceSelf(e *env, f *flightSelf, ws []*cluster.Worker) {
	if e.tr == nil {
		return
	}
	recs := []*reqtrace.Recorder{s.frontend.ReqTrace()}
	for _, w := range ws {
		recs = append(recs, w.ReqTrace())
	}
	// A worker's run span is the child of the frontend's attempt span, in
	// another recorder: find it by trace id.
	runUS := map[string]float64{}
	var trees []reqtrace.TreeSnapshot
	for _, r := range recs {
		for _, t := range r.Trees(0) {
			if root := t.Root(); root.Kind == reqtrace.KindRun {
				runUS[t.Trace] = root.DurUS
			}
			// The frontend's ring outlives a phase: take each tree once.
			if key := t.Process + t.Trace; !f.seen[key] {
				f.seen[key] = true
				trees = append(trees, t)
			}
		}
	}
	for _, t := range trees {
		kids := map[string]float64{}
		for _, sp := range t.Spans {
			kids[sp.Parent] += sp.DurUS
		}
		for _, sp := range t.Spans {
			self := sp.DurUS - kids[sp.ID]
			if sp.Kind == reqtrace.KindAttempt {
				self -= runUS[t.Trace]
			}
			f.us[sp.Kind] = append(f.us[sp.Kind], max(self, 0))
		}
	}
}
