// Command benchmark is the repository's performance benchmark: it runs one
// workload against the simulator and its serving stack, checks the outputs,
// and prints every metric by name. See README.md.
//
//	go run ./benchmark -workload jit_sweep -seed 1 -seconds 20 -trace 0
//
// It measures host time. Simulated statistics are reported as exact counts
// that a change to host code alone must not move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// env is what a workload is given to run with.
type env struct {
	seed    int64
	seconds float64
	clients int // closed-loop client goroutines and Runner width: nproc
	cal     *calibrator
	tr      *tracer // nil in the untraced run
	root    int     // span the workload's spans hang under
	// minUnits is how many times the workload's unit of work (a pass, a
	// regeneration, a cold round) runs even when the time is up: enough
	// for a median in the untraced run, one in each half of the traced run.
	minUnits int
}

// measurement is what one execution of a workload yields. The end-to-end
// metrics are all derived from it, the same way for every workload.
type measurement struct {
	opNs      []float64 // latency of every operation
	attempted int
	failed    int
	failures  []string // the first few, for the log

	// The simulating region: where the workload spends host time to retire
	// simulated instructions.
	wallNsPerInstr  float64 // wall the user waits ÷ instructions simulated
	gmeanNsPerInstr float64 // geometric mean over the region's timed units
	cpuNsPerInstr   float64 // process CPU (user+sys) ÷ instructions simulated
	allocsPerKinstr float64 // Go heap allocations ÷ k instructions simulated
	plainNsPerInstr float64 // wallNsPerInstr before scaling to reference ns

	sim   simStats           // exact simulated statistics of one unit of work
	layer map[string]float64 // workload-derived per-layer metrics
}

func (m *measurement) fail(msg string) {
	m.failed++
	if len(m.failures) < 10 {
		m.failures = append(m.failures, msg)
	}
}

// state is a workload that has been set up.
type state interface {
	run(e *env) (*measurement, error)
	close()
}

// workloads maps a workload's name to its set-up: everything before the
// first timed call. Set-up is timed itself, and runs several times.
var workloads = map[string]func(e *env) (state, error){
	"interp_sweep": func(e *env) (state, error) { return setupSweep(interpCells()) },
	"jit_sweep":    func(e *env) (state, error) { return setupSweep(jitCells()) },
	"paper_regen":  setupRegen,
	"serve_mix":    setupServe,
}

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 3

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: interp_sweep, jit_sweep, paper_regen, serve_mix")
		seed    = flag.Int64("seed", 1, "workload seed: orders cells and draws the request sequence")
		seconds = flag.Float64("seconds", runSeconds, "how long to measure")
		trace   = flag.Int("trace", 0, "1: record spans, run the layer micro-drivers, print per-layer metrics")
		clients = flag.Int("clients", 0, "closed-loop client goroutines (0: nproc; more than nproc is refused)")
		agree   = flag.Bool("agree", false, "run every workload in two sets of three runs, each with another seed, and compare the medians")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json")
		record  = flag.Bool("record-expected", false, "rewrite "+expectedPath+" from the reference interpreters")
	)
	flag.Parse()

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	switch {
	case *spec:
		fmt.Println(specJSON())
		return
	case *record:
		exitOn(recordExpectations())
		return
	case *agree:
		os.Exit(runAgree(*seconds))
	}
	setup, ok := workloads[*name]
	if !ok {
		exitOn(fmt.Errorf("unknown workload %q", *name))
	}
	if *clients == 0 {
		*clients = nproc
	}
	if *clients > nproc {
		exitOn(fmt.Errorf("%d clients on %d processors: clients would queue for a processor, not for the system", *clients, nproc))
	}
	e := &env{seed: *seed, seconds: *seconds, clients: *clients, minUnits: 2, cal: newCalibrator()}
	exitOn(runOnce(*name, setup, e, *trace != 0))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// runOnce sets the workload up, measures it, and prints the metrics. The
// last line of standard output is the JSON result.
func runOnce(name string, setup func(*env) (state, error), e *env, traced bool) error {
	var (
		st     state
		timing []timed
		setups []float64
	)
	e.cal.burst(refAround)
	for i := 0; i < setupRuns; i++ {
		if st != nil {
			st.close()
		}
		t := startTimed()
		s, err := setup(e)
		if err != nil {
			return fmt.Errorf("%s: set-up: %w", name, err)
		}
		t.stop()
		e.cal.burst(refAround)
		timing = append(timing, t)
		st = s
	}
	defer st.close()
	for _, t := range timing {
		setups = append(setups, t.wall(e.cal)/1e9)
	}

	metrics := map[string]float64{}
	var m *measurement
	var err error
	if !traced {
		if m, err = st.run(e); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		s := sorted(m.opNs)
		p90, q := tailQuantile(s, 0.90)
		metrics["setup_s"] = median(setups)
		metrics["host_ns_per_sim_instr"] = m.wallNsPerInstr
		metrics["host_ns_per_sim_instr_gmean"] = m.gmeanNsPerInstr
		metrics["host_cpu_ns_per_sim_instr"] = m.cpuNsPerInstr
		metrics["host_allocs_per_kinstr"] = m.allocsPerKinstr
		metrics["op_p50_us"] = quantile(s, 0.5) / 1e3
		metrics["op_p90_us"] = p90 / 1e3
		metrics["peak_rss_mb"] = peakRSSMB()
		fmt.Printf("# %s seed=%d: %d operations, op_p90_us is the p%.0f\n", name, e.seed, len(s), q*100)
		rs := sorted(e.cal.ns)
		fmt.Printf("# times are in reference ns: %d reference slices took p10 %.2f / median %.2f / p90 %.2f ms, nominal %.2f ms; in plain ns host_ns_per_sim_instr=%.4g\n",
			len(rs), quantile(rs, 0.1)/1e6, quantile(rs, 0.5)/1e6, quantile(rs, 0.9)/1e6, refNominalNs/1e6, m.plainNsPerInstr)
		printMetrics(endToEnd, metrics)
	} else {
		if m, err = runTraced(name, st, e, metrics); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		printMetrics(perLayer, metrics)
	}
	for _, f := range m.failures {
		fmt.Printf("# FAILED %s\n", f)
	}
	fmt.Printf("# fingerprint %s sim_instrs=%d hash=%s\n", name, m.sim.instrs, m.sim.fingerprint())

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{metrics[d.Name], d.Unit}
	}
	blob, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	return nil
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printMetrics(defs []metricDef, v map[string]float64) {
	for _, d := range defs {
		fmt.Printf("%-36s %16.6g %s\n", d.Name, v[d.Name], d.Unit)
	}
}

// runTraced is the -trace 1 run: half the time with spans recorded, half
// without, so that the cost of tracing is itself measured; then the layer
// micro-drivers. End-to-end metrics never come from here.
func runTraced(name string, st state, e *env, metrics map[string]float64) (*measurement, error) {
	half := *e
	half.seconds = e.seconds / 2
	half.minUnits = 1
	half.tr = newTracer()
	half.root = half.tr.start(0, "bench", name, "")
	m, err := st.run(&half)
	if err != nil {
		return nil, err
	}
	half.tr.end(half.root)

	plain := half
	plain.tr, plain.root = nil, 0
	untraced, err := st.run(&plain)
	if err != nil {
		return nil, err
	}
	m.attempted += untraced.attempted
	m.failed += untraced.failed
	m.failures = append(m.failures, untraced.failures...)

	for k, v := range m.layer {
		metrics[k] = v
	}
	m.sim.layerCounts(metrics)
	if err := microDrivers(e.cal, half.tr, half.root, metrics); err != nil {
		return nil, err
	}

	// The reference kernel itself: what a hop cost, and how much it moved
	// between the first and the last quarter of the run.
	ns := e.cal.ns
	q := len(ns) / 4
	metrics["host.calib_ns"] = median(ns) / refHops
	metrics["host.calib_drift_x"] = median(ns[len(ns)-q:]) / median(ns[:q])
	metrics["host.trace_overhead_x"] = ratio(m.wallNsPerInstr, untraced.wallNsPerInstr)

	selfMS := selfByLayer(half.tr.spans)
	path, err := half.tr.write(outDir, name, e.seed, selfMS)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# %d spans in %s; self time by layer (ms):", len(half.tr.spans), path)
	for layer, ms := range selfMS {
		fmt.Printf(" %s=%.1f", layer, ms)
	}
	fmt.Println()
	return m, nil
}

// sink keeps measured results alive.
var sink uint64

// perOp returns the median nanoseconds per operation of five batches of
// f(n), n sized so that a batch takes about 10 ms.
func perOp(f func(n int)) float64 {
	n := 1
	for {
		t0 := time.Now()
		f(n)
		if d := time.Since(t0); d >= 5*time.Millisecond || n >= 1<<28 {
			n = int(float64(n) * float64(10*time.Millisecond) / float64(d+1))
			break
		}
		n *= 4
	}
	n = max(n, 1)
	var per []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		f(n)
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

// mallocsNow returns the Go heap allocations so far. It stops the world,
// so call it between operations, never inside one.
func mallocsNow() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs)
}

// timed is one measured interval: wall clock at both ends, and the process
// CPU and Go heap allocations between them. Reading the allocation count
// stops the world for some tens of µs, outside the interval.
type timed struct {
	a, b    time.Time
	cpuNs   float64
	mallocs float64
}

func startTimed() timed {
	t := timed{mallocs: mallocsNow(), cpuNs: cpuNow()}
	t.a = time.Now()
	return t
}

func (t *timed) stop() {
	t.b = time.Now()
	t.cpuNs = cpuNow() - t.cpuNs
	t.mallocs = mallocsNow() - t.mallocs
}

// plain returns the interval's wall clock in plain nanoseconds; wall and cpu
// return its costs in reference nanoseconds.
func (t timed) plain() float64 { return float64(t.b.Sub(t.a).Nanoseconds()) }

func (t timed) wall(c *calibrator) float64 { return t.plain() * c.scale(t.a, t.b) }

func (t timed) cpu(c *calibrator) float64 { return t.cpuNs * c.scale(t.a, t.b) }

// costs lists, for each interval, its wall and CPU in reference ns, its wall
// in plain ns, and its allocations.
func costs(ts []timed, c *calibrator) (wall, cpu, plain, mallocs []float64) {
	for _, t := range ts {
		wall = append(wall, t.wall(c))
		cpu = append(cpu, t.cpu(c))
		plain = append(plain, t.plain())
		mallocs = append(mallocs, t.mallocs)
	}
	return
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// specJSON renders BENCHMARK.json from the metric and workload tables.
func specJSON() string {
	blob, err := json.MarshalIndent(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"` // bound 0: left out
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}, "", "  ")
	if err != nil {
		panic(err) // static tables
	}
	return string(blob)
}

// runSeconds is BENCHMARK.json's run_seconds: what -seconds the driver passes.
const runSeconds = 20
