// Command mtjitload is the cluster's open-loop load generator: it
// replays heavy request mixes of the benchmark suite (plus recorded
// trace fixtures) against an mtjitd frontend or worker, verifies that
// every cell always answers with byte-identical result payloads, and
// reports latency quantiles and shed/dedup/store rates at saturation.
//
// Open-loop means arrivals are scheduled by the clock, not by
// completions: when the target saturates, requests pile up and shed —
// which is exactly the regime the p99/p999 and shed-rate numbers are
// for. Traffic is dedup-heavy by construction (-hot concentrates a
// fraction of arrivals on a few hot cells), matching the bursty,
// repetitive cell traffic the cluster is built to absorb.
//
// All measurements flow through the live telemetry registry
// (internal/telemetry): the generator registers its own
// mtjitload_* counters and latency histogram, derives the report's
// quantiles from that histogram, and scrapes the target's (and any
// -scrape peers') /metrics for the server-side dedup, shed, and
// content-store counters.
//
// Usage:
//
//	mtjitload -target http://127.0.0.1:8100 -rate 200 -duration 10s
//	mtjitload -target http://127.0.0.1:8100 -traces internal/bench/testdata/traces \
//	          -scrape http://127.0.0.1:8101,http://127.0.0.1:8102 -out report.json
//
// Exit status is non-zero if any response disagreed byte-for-byte with
// the first response seen for the same cell (-verify, on by default).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"metajit/internal/bench"
	"metajit/internal/cluster"
	"metajit/internal/harness"
	"metajit/internal/reqtrace"
	"metajit/internal/telemetry"
)

func main() {
	target := flag.String("target", "http://127.0.0.1:8100", "frontend (or worker) base URL")
	rate := flag.Float64("rate", 50, "open-loop arrival rate in requests/second")
	duration := flag.Duration("duration", 10*time.Second, "load duration")
	vms := flag.String("vms", "cpython,pypy,pypy-tiered", "VM kinds in the mix (comma-separated; pypy-amalg and pypy-adaptive add the tier-2 method strategies)")
	benches := flag.String("benches", "", "benchmarks in the mix (comma-separated; default: the full suite)")
	traceDir := flag.String("traces", "", "recorded-trace fixture directory added to the mix")
	hot := flag.Float64("hot", 0.5, "fraction of arrivals concentrated on the hot cell subset")
	hotCells := flag.Int("hot-cells", 3, "size of the hot cell subset")
	seed := flag.Int64("seed", 1, "mix-sampling seed (reproducible traffic)")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request timeout")
	verify := flag.Bool("verify", true, "fail if a cell ever answers with different result bytes")
	scrape := flag.String("scrape", "", "extra /metrics base URLs to aggregate (comma-separated; target always scraped)")
	out := flag.String("out", "", "write the JSON report here (default: stdout)")
	exemplars := flag.Bool("exemplars", true, "resolve the slowest request per percentile bucket to its span tree via /debug/reqtrace")
	traceOut := flag.String("reqtrace-out", "", "fetch every scraped process's flight recorder, merge into one Chrome trace, validate, and write it here")
	flag.Parse()

	mix, err := buildMix(*benches, *vms, *traceDir)
	if err != nil {
		fatal(err)
	}
	if len(mix) == 0 {
		fatal(fmt.Errorf("empty request mix"))
	}
	g := newGenerator(*target, mix, *hot, *hotCells, *seed, *timeout, *verify)
	fmt.Fprintf(os.Stderr, "mtjitload: %d cells in mix (%d hot), %.0f req/s for %s against %s\n",
		len(mix), min(*hotCells, len(mix)), *rate, *duration, *target)

	g.run(*rate, *duration)

	scrapes := []string{*target}
	if *scrape != "" {
		for _, u := range strings.Split(*scrape, ",") {
			if u = strings.TrimSpace(u); u != "" && u != *target {
				scrapes = append(scrapes, u)
			}
		}
	}
	rep := g.report(scrapes, *exemplars)
	if *traceOut != "" {
		if err := g.writeMergedChrome(scrapes, *traceOut); err != nil {
			fatal(err)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		enc = json.NewEncoder(f)
	}
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	rep.printSummary(os.Stderr)
	if *verify && rep.Wrong > 0 {
		fmt.Fprintf(os.Stderr, "mtjitload: FAIL: %d responses diverged from their cell's first result\n", rep.Wrong)
		os.Exit(1)
	}
}

// buildMix enumerates the (bench, vm) cells of the run. VM kinds that
// need a guest source the program lacks are skipped per-program, so the
// default mix covers every runnable combination: the 21 synthetic
// benchmarks plus every recorded fixture in -traces.
func buildMix(benchCSV, vmCSV, traceDir string) ([]cluster.Request, error) {
	var progs []*bench.Program
	if benchCSV == "" {
		for _, p := range bench.All() {
			p := p
			progs = append(progs, &p)
		}
	} else {
		for _, name := range strings.Split(benchCSV, ",") {
			p := bench.ByName(strings.TrimSpace(name))
			if p == nil {
				return nil, fmt.Errorf("unknown benchmark %q", name)
			}
			progs = append(progs, p)
		}
	}
	if traceDir != "" {
		tps, err := bench.LoadTraceDir(traceDir)
		if err != nil {
			return nil, err
		}
		for i := range tps {
			progs = append(progs, &tps[i])
		}
	}
	var mix []cluster.Request
	for _, vm := range strings.Split(vmCSV, ",") {
		vm = strings.TrimSpace(vm)
		kind := harness.VMKind(vm)
		for _, p := range progs {
			switch kind {
			case harness.VMRacket, harness.VMPycket:
				if p.SkSource == "" {
					continue
				}
			case harness.VMC:
				continue // static kernels are not a cluster workload
			default:
				if p.Source == "" {
					continue
				}
			}
			mix = append(mix, cluster.Request{Bench: p.Name, VM: vm})
		}
	}
	return mix, nil
}

type generator struct {
	target   string
	mix      []cluster.Request
	hot      float64
	hotCells int
	verify   bool
	client   *http.Client

	reg      *telemetry.Registry
	okC      *telemetry.Counter
	shedC    *telemetry.Counter
	errC     *telemetry.Counter
	wrongC   *telemetry.Counter
	srcSim   *telemetry.Counter
	srcMemo  *telemetry.Counter
	srcStore *telemetry.Counter
	lat      *telemetry.Histogram
	inflight atomic.Int64
	ids      *reqtrace.IDSource

	mu      sync.Mutex
	rng     *rand.Rand
	seen    map[string]json.RawMessage // cell id -> first result payload
	samples []sample                   // one per OK response, for exemplars
}

// sample ties one OK response to the trace ID the generator minted for
// it — the key that resolves a latency outlier to its span tree in the
// servers' flight recorders.
type sample struct {
	trace  string
	bench  string
	vm     string
	source string
	latUS  uint64
}

func newGenerator(target string, mix []cluster.Request, hot float64, hotCells int, seed int64, timeout time.Duration, verify bool) *generator {
	g := &generator{
		target:   strings.TrimSuffix(target, "/"),
		mix:      mix,
		hot:      hot,
		hotCells: hotCells,
		verify:   verify,
		client:   &http.Client{Timeout: timeout},
		reg:      telemetry.NewRegistry(),
		ids:      reqtrace.NewIDSource(seed),
		rng:      rand.New(rand.NewSource(seed)),
		seen:     map[string]json.RawMessage{},
	}
	help := "Load-generator requests by outcome (ok, shed, error, wrong)."
	g.okC = g.reg.Counter("mtjitload_requests_total", help, "outcome", "ok")
	g.shedC = g.reg.Counter("mtjitload_requests_total", help, "outcome", "shed")
	g.errC = g.reg.Counter("mtjitload_requests_total", help, "outcome", "error")
	g.wrongC = g.reg.Counter("mtjitload_requests_total", help, "outcome", "wrong")
	shelp := "OK responses by serving source (simulated, memo, store)."
	g.srcSim = g.reg.Counter("mtjitload_responses_total", shelp, "source", "simulated")
	g.srcMemo = g.reg.Counter("mtjitload_responses_total", shelp, "source", "memo")
	g.srcStore = g.reg.Counter("mtjitload_responses_total", shelp, "source", "store")
	g.lat = g.reg.Histogram("mtjitload_latency_micros", "End-to-end OK-request latency in microseconds.")
	g.reg.GaugeFunc("mtjitload_inflight", "Requests currently outstanding.", func() float64 {
		return float64(g.inflight.Load())
	})
	return g
}

// pick samples the next cell: with probability hot, one of the first
// hotCells cells (the dedup/store-heavy head of the distribution);
// otherwise uniform over the whole mix.
func (g *generator) pick() cluster.Request {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := len(g.mix)
	h := g.hotCells
	if h > n {
		h = n
	}
	if h > 0 && g.rng.Float64() < g.hot {
		return g.mix[g.rng.Intn(h)]
	}
	return g.mix[g.rng.Intn(n)]
}

// run drives the open loop: one goroutine per arrival, scheduled by the
// clock. After the duration it stops launching and waits for
// outstanding requests (bounded by the client timeout).
func (g *generator) run(rate float64, d time.Duration) {
	if rate <= 0 {
		rate = 1
	}
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for time.Now().Before(deadline) {
		<-tick.C
		req := g.pick()
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.one(req)
		}()
	}
	wg.Wait()
}

func (g *generator) one(req cluster.Request) {
	body, _ := json.Marshal(&req)
	// Mint this request's trace before sending: the seeded ID source
	// makes a run's trace IDs reproducible, and knowing the ID up front
	// is what lets the report resolve an outlier to its span tree in the
	// servers' flight recorders afterwards.
	ctx := g.ids.NewContext()
	hreq, err := http.NewRequest(http.MethodPost, g.target+"/run", bytes.NewReader(body))
	if err != nil {
		g.errC.Inc()
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	reqtrace.Inject(hreq.Header, ctx)
	g.inflight.Add(1)
	defer g.inflight.Add(-1)
	start := time.Now()
	resp, err := g.client.Do(hreq)
	if err != nil {
		g.errC.Inc()
		return
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		g.errC.Inc()
		return
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		lat := uint64(time.Since(start).Microseconds())
		g.lat.Observe(lat)
		g.check(b, req, ctx, lat)
	case resp.StatusCode == http.StatusTooManyRequests:
		g.shedC.Inc()
	default:
		g.errC.Inc()
	}
}

// check verifies the correctness invariant the chaos layer proves in
// miniature: one cell, one answer. The first result payload seen for a
// cell pins it; any later response for the same cell must carry
// byte-identical result JSON, no matter which worker served it or
// whether it came from the memoizer, the store, or a fresh simulation.
func (g *generator) check(body []byte, req cluster.Request, ctx reqtrace.Context, latUS uint64) {
	var rr struct {
		CellID string          `json:"cell_id"`
		Source string          `json:"source"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &rr); err != nil || rr.CellID == "" {
		g.errC.Inc()
		return
	}
	g.okC.Inc()
	switch rr.Source {
	case "simulated":
		g.srcSim.Inc()
	case "memo":
		g.srcMemo.Inc()
	case "store":
		g.srcStore.Inc()
	}
	g.mu.Lock()
	g.samples = append(g.samples, sample{
		trace:  ctx.Trace.Hex(),
		bench:  req.Bench,
		vm:     req.VM,
		source: rr.Source,
		latUS:  latUS,
	})
	g.mu.Unlock()
	if !g.verify {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if first, ok := g.seen[rr.CellID]; ok {
		if !bytes.Equal(first, rr.Result) {
			g.wrongC.Inc()
		}
		return
	}
	g.seen[rr.CellID] = append(json.RawMessage(nil), rr.Result...)
}

// Report is the run's outcome, serialized as JSON. Latency quantiles
// are derived from the generator's telemetry histogram (log2 buckets,
// linear interpolation within a bucket); server-side rates come from
// the scraped registries.
type Report struct {
	Target        string  `json:"target"`
	Requests      uint64  `json:"requests"`
	OK            uint64  `json:"ok"`
	Shed          uint64  `json:"shed"`
	Errors        uint64  `json:"errors"`
	Wrong         uint64  `json:"wrong"`
	DistinctCells int     `json:"distinct_cells"`
	ShedRate      float64 `json:"shed_rate"`

	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	MeanMS float64 `json:"mean_ms"`

	SourceSimulated uint64 `json:"source_simulated"`
	SourceMemo      uint64 `json:"source_memo"`
	SourceStore     uint64 `json:"source_store"`

	// Server-side counters aggregated over every scraped registry.
	FrontendDedup    float64 `json:"frontend_dedup"`
	FrontendFailover float64 `json:"frontend_failovers"`
	FrontendShed     float64 `json:"frontend_shed"`
	StoreHits        float64 `json:"store_hits"`
	StoreMisses      float64 `json:"store_misses"`
	StoreCorrupt     float64 `json:"store_corrupt"`
	DedupRate        float64 `json:"dedup_rate"`
	StoreHitRate     float64 `json:"store_hit_rate"`

	// Exemplars explain the latency quantiles in place: for each
	// percentile bucket, the slowest OK request in it, resolved to its
	// span breakdown via the servers' /debug/reqtrace flight recorders.
	Exemplars []Exemplar `json:"exemplars,omitempty"`

	Scraped []string `json:"scraped"`
}

// Exemplar is the slowest request of one percentile bucket, explained:
// the trace ID names the request in every process's flight recorder,
// and Spans is its end-to-end breakdown — route, failover attempts,
// singleflight role, store read/write, simulate — merged across the
// scraped processes.
type Exemplar struct {
	Bucket    string      `json:"bucket"` // "p50", "p99", "p999"
	Trace     string      `json:"trace"`
	Bench     string      `json:"bench"`
	VM        string      `json:"vm"`
	Source    string      `json:"source"`
	LatencyMS float64     `json:"latency_ms"`
	Spans     []SpanBrief `json:"spans,omitempty"`
}

// SpanBrief is one span of an exemplar's tree, flattened for the
// report; VMSpans counts the simulator phase spans a simulate span
// captured (the full detail stays in /debug/reqtrace?format=chrome).
type SpanBrief struct {
	Process string  `json:"process"`
	Kind    string  `json:"kind"`
	Name    string  `json:"name,omitempty"`
	DurMS   float64 `json:"dur_ms"`
	Err     string  `json:"err,omitempty"`
	VMSpans int     `json:"vm_spans,omitempty"`
}

func (g *generator) report(scrapes []string, exemplars bool) *Report {
	snap := g.lat.Snapshot()
	r := &Report{
		Target:          g.target,
		OK:              g.okC.Value(),
		Shed:            g.shedC.Value(),
		Errors:          g.errC.Value(),
		Wrong:           g.wrongC.Value(),
		SourceSimulated: g.srcSim.Value(),
		SourceMemo:      g.srcMemo.Value(),
		SourceStore:     g.srcStore.Value(),
		P50MS:           quantileMS(snap, 0.50),
		P99MS:           quantileMS(snap, 0.99),
		P999MS:          quantileMS(snap, 0.999),
	}
	g.mu.Lock()
	r.DistinctCells = len(g.seen)
	g.mu.Unlock()
	r.Requests = r.OK + r.Shed + r.Errors + r.Wrong
	if r.Requests > 0 {
		r.ShedRate = float64(r.Shed) / float64(r.Requests)
	}
	if snap.Count > 0 {
		r.MeanMS = float64(snap.Sum) / float64(snap.Count) / 1000
	}
	for _, u := range scrapes {
		fams, err := g.scrapeOne(u)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mtjitload: scrape %s: %v\n", u, err)
			continue
		}
		r.Scraped = append(r.Scraped, u)
		r.FrontendDedup += sumFamily(fams, "cluster_frontend_dedup_total", "", "")
		r.FrontendFailover += sumFamily(fams, "cluster_frontend_failovers_total", "", "")
		r.FrontendShed += sumFamily(fams, "cluster_frontend_requests_total", "outcome", "shed")
		r.StoreHits += sumFamily(fams, "cluster_store_hits_total", "", "")
		r.StoreMisses += sumFamily(fams, "cluster_store_misses_total", "", "")
		r.StoreCorrupt += sumFamily(fams, "cluster_store_corrupt_total", "", "")
	}
	sort.Strings(r.Scraped)
	if exemplars {
		r.Exemplars = g.resolveExemplars(scrapes)
	}
	if r.OK > 0 {
		r.DedupRate = r.FrontendDedup / float64(r.OK)
	}
	if t := r.StoreHits + r.StoreMisses; t > 0 {
		r.StoreHitRate = r.StoreHits / t
	} else if r.OK > 0 {
		// Store counters live on the workers; when only the frontend was
		// scraped, fall back to the client-observed serving sources.
		r.StoreHitRate = float64(r.SourceStore) / float64(r.OK)
	}
	return r
}

// resolveExemplars picks the slowest OK request at each percentile
// bucket and resolves its trace ID to a span breakdown by querying
// every scraped process's /debug/reqtrace. Fetch failures degrade to an
// exemplar without spans — the trace ID is still reported, so the
// outlier stays attributable by hand.
func (g *generator) resolveExemplars(scrapes []string) []Exemplar {
	g.mu.Lock()
	samples := append([]sample(nil), g.samples...)
	g.mu.Unlock()
	if len(samples) == 0 {
		return nil
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].latUS < samples[j].latUS })
	var out []Exemplar
	picked := map[string]bool{}
	for _, b := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p99", 0.99}, {"p999", 0.999}} {
		idx := int(math.Ceil(b.q*float64(len(samples)))) - 1
		if idx < 0 {
			idx = 0
		}
		s := samples[idx]
		ex := Exemplar{
			Bucket:    b.name,
			Trace:     s.trace,
			Bench:     s.bench,
			VM:        s.vm,
			Source:    s.source,
			LatencyMS: float64(s.latUS) / 1000,
		}
		if !picked[s.trace] { // tiny runs repeat a sample across buckets
			picked[s.trace] = true
			for _, t := range g.fetchTrees(scrapes, s.trace) {
				for _, sp := range t.Spans {
					ex.Spans = append(ex.Spans, SpanBrief{
						Process: t.Process,
						Kind:    sp.Kind,
						Name:    sp.Name,
						DurMS:   sp.DurUS / 1000,
						Err:     sp.Err,
						VMSpans: len(sp.VM),
					})
				}
			}
		}
		out = append(out, ex)
	}
	return out
}

// fetchTrees collects one trace's span trees from every scraped
// process's flight recorder (trace == "" fetches everything).
func (g *generator) fetchTrees(bases []string, trace string) []reqtrace.TreeSnapshot {
	var out []reqtrace.TreeSnapshot
	for _, base := range bases {
		url := strings.TrimSuffix(base, "/") + "/debug/reqtrace"
		if trace != "" {
			url += "?trace=" + trace
		}
		resp, err := g.client.Get(url)
		if err != nil {
			continue
		}
		var dump reqtrace.Dump
		err = json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&dump)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		out = append(out, dump.Trees...)
	}
	return out
}

// writeMergedChrome pulls every scraped process's full flight ring,
// merges it into a single Chrome trace, validates the export (paired
// B/E events, monotone tracks), and writes it to path — the artifact CI
// archives from the cluster-smoke burst.
func (g *generator) writeMergedChrome(scrapes []string, path string) error {
	trees := g.fetchTrees(scrapes, "")
	if len(trees) == 0 {
		return fmt.Errorf("reqtrace export: no span trees fetched from %v", scrapes)
	}
	var buf bytes.Buffer
	if err := reqtrace.WriteChrome(&buf, trees); err != nil {
		return fmt.Errorf("reqtrace export: %w", err)
	}
	events, err := reqtrace.ValidateChrome(buf.Bytes())
	if err != nil {
		return fmt.Errorf("reqtrace export: merged trace invalid: %w", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("reqtrace export: %w", err)
	}
	fmt.Fprintf(os.Stderr, "mtjitload: wrote %s: %d trees, %d chrome events from %d processes\n",
		path, len(trees), events, len(scrapes))
	return nil
}

func (g *generator) scrapeOne(base string) (map[string]*telemetry.ParsedFamily, error) {
	resp, err := g.client.Get(strings.TrimSuffix(base, "/") + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return telemetry.ParseText(resp.Body)
}

// sumFamily sums a family's samples, optionally filtered by one label
// pair. ParseText renders each sample's labels into its name, so match
// on substring of the rendered form.
func sumFamily(fams map[string]*telemetry.ParsedFamily, name, labelKey, labelVal string) float64 {
	f, ok := fams[name]
	if !ok {
		return 0
	}
	var t float64
	for _, s := range f.Samples {
		if labelKey != "" && !strings.Contains(s.Labels, labelKey+`="`+labelVal+`"`) {
			continue
		}
		t += s.Value
	}
	return t
}

// quantileMS estimates a quantile in milliseconds from a log2-bucketed
// latency histogram: find the bucket the quantile lands in, then
// interpolate linearly between its bounds. Resolution is the bucket
// width (a factor of 2), which is plenty for the saturation shapes the
// report is after.
func quantileMS(s telemetry.HistogramSnapshot, q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var prev uint64
	for i := 0; i < telemetry.HistogramBuckets; i++ {
		cum := s.Buckets[i]
		if float64(cum) >= rank {
			lo, hi := 0.0, math.Exp2(float64(i))
			if i > 0 {
				lo = math.Exp2(float64(i - 1))
			}
			within := 0.5
			if cum > prev {
				within = (rank - float64(prev)) / float64(cum-prev)
			}
			return (lo + within*(hi-lo)) / 1000
		}
		prev = cum
	}
	// Overflow bucket: report its lower bound.
	return math.Exp2(telemetry.HistogramBuckets-1) / 1000
}

func (r *Report) printSummary(w io.Writer) {
	fmt.Fprintf(w, "mtjitload: %d requests → %d ok, %d shed (%.1f%%), %d errors, %d wrong; %d distinct cells\n",
		r.Requests, r.OK, r.Shed, 100*r.ShedRate, r.Errors, r.Wrong, r.DistinctCells)
	fmt.Fprintf(w, "mtjitload: latency p50 %.2fms  p99 %.2fms  p999 %.2fms  mean %.2fms\n",
		r.P50MS, r.P99MS, r.P999MS, r.MeanMS)
	fmt.Fprintf(w, "mtjitload: served simulated=%d memo=%d store=%d; dedup rate %.1f%%, store hit rate %.1f%%, failovers %.0f\n",
		r.SourceSimulated, r.SourceMemo, r.SourceStore, 100*r.DedupRate, 100*r.StoreHitRate, r.FrontendFailover)
	for _, ex := range r.Exemplars {
		fmt.Fprintf(w, "mtjitload: %s exemplar %.2fms %s/%s (%s) trace=%s: %d spans resolved\n",
			ex.Bucket, ex.LatencyMS, ex.Bench, ex.VM, ex.Source, ex.Trace, len(ex.Spans))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "mtjitload: %v\n", err)
	os.Exit(1)
}
