package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"metajit/internal/aot"
	"metajit/internal/bench"
	"metajit/internal/cluster"
	"metajit/internal/core"
	"metajit/internal/cpu"
	"metajit/internal/harness"
	"metajit/internal/heap"
	"metajit/internal/isa"
	"metajit/internal/mtjit"
	"metajit/internal/mtjitd"
	"metajit/internal/pintool"
	"metajit/internal/pylang"
	"metajit/internal/reqtrace"
	"metajit/internal/sklang"
	"metajit/internal/telemetry"
	"metajit/internal/trace"
)

// micro runs the layer micro-drivers of the traced run: each times one
// layer from outside, through its exported functions, under a span.
type micro struct {
	cal  *calibrator
	tr   *tracer
	root int
	out  map[string]float64
}

func microDrivers(cal *calibrator, tr *tracer, root int, out map[string]float64) error {
	m := &micro{cal, tr, root, out}
	m.cpu()
	m.heapAndAOT()
	m.frontends()
	m.controller()
	m.telemetry()
	m.reqtrace()
	if err := m.traces(); err != nil {
		return err
	}
	if err := m.harness(); err != nil {
		return err
	}
	if err := m.tiersAndObservers(); err != nil {
		return err
	}
	if err := m.clusterPaths(); err != nil {
		return err
	}
	return m.servers()
}

// span runs f under a span of the layer, with a reference slice on either
// side, and returns the factor that scales what f measured.
func (m *micro) span(layer, name string, f func()) float64 {
	m.cal.slice()
	sp := m.tr.start(m.root, layer, name, "")
	a := time.Now()
	f()
	b := time.Now()
	m.tr.end(sp)
	m.cal.slice()
	return m.cal.scale(a, b)
}

// perOp stores the reference ns per operation of f(n) under name, whose
// first dot-separated part is the layer.
func (m *micro) perOp(name string, f func(n int)) {
	var ns float64
	scale := m.span(layerOf(name), name, func() { ns = perOp(f) })
	m.out[name] = ns * scale
}

// layerOf returns the module a per-layer metric name starts with.
func layerOf(metric string) string {
	layer, _, _ := strings.Cut(metric, ".")
	return layer
}

func (m *micro) cpu() {
	mach := cpu.NewDefault()
	block := isa.NewBlock(isa.CC(isa.ALU, 3), isa.CC(isa.Load, 1), isa.CC(isa.Store, 1))
	m.perOp("cpu.ops_ns", func(n int) {
		for i := 0; i < n; i++ {
			mach.Ops(isa.ALU, 1)
		}
	})
	m.perOp("cpu.block_ns", func(n int) {
		for i := 0; i < n; i++ {
			mach.Block(block)
		}
	})
	m.perOp("cpu.load_ns", func(n int) {
		for i := 0; i < n; i++ {
			mach.Load(isa.RegionHeap + uint64(i)*8)
		}
	})
	m.perOp("cpu.store_ns", func(n int) {
		for i := 0; i < n; i++ {
			mach.Store(isa.RegionHeap + uint64(i)*8)
		}
	})
	m.perOp("cpu.branch_ns", func(n int) {
		for i := 0; i < n; i++ {
			mach.Branch(isa.RegionVMText+uint64(i%64)*4, i%3 == 0)
		}
	})
	m.perOp("cpu.indirect_ns", func(n int) {
		for i := 0; i < n; i++ {
			mach.Indirect(isa.RegionVMText, isa.RegionVMText+uint64(i%8)*256)
		}
	})
	one := cpu.NewDefault()
	one.Observe(core.ObserverFunc(func(core.Annotation, uint64, uint64) {}))
	m.perOp("cpu.annot_ns", func(n int) {
		for i := 0; i < n; i++ {
			one.Annot(core.TagDispatch, 1)
		}
	})
	// The observers every harness.Run attaches.
	std := cpu.NewDefault()
	pintool.NewPhaseTracker(std)
	pintool.NewWorkMeter(std, 0)
	pintool.NewAOTAttributor(std)
	pintool.NewTraceEventCounter(std)
	m.perOp("pintool.annot_ns", func(n int) {
		for i := 0; i < n; i++ {
			std.Annot(core.TagDispatch, 1)
		}
	})
}

func (m *micro) heapAndAOT() {
	h := heap.New(cpu.NewDefault(), heap.DefaultConfig())
	shape := h.NewShape("pair", 2)
	m.perOp("heap.alloc_ns", func(n int) {
		for i := 0; i < n; i++ {
			h.AllocObj(shape, 2)
		}
	})
	// A minor collection that finds 64 survivors among 256 young objects.
	var live []*heap.Obj
	h.AddRoots(heap.RootFunc(func(visit func(*heap.Obj)) {
		for _, o := range live {
			visit(o)
		}
	}))
	var minorNs float64
	scale := m.span("heap", "heap.minor_us", func() {
		var per []float64
		for rep := 0; rep < 200; rep++ {
			live = live[:0]
			for i := 0; i < 256; i++ {
				if o := h.AllocObj(shape, 2); i%4 == 0 {
					live = append(live, o)
				}
			}
			t0 := time.Now()
			h.Minor()
			per = append(per, float64(time.Since(t0).Nanoseconds()))
		}
		minorNs = median(per)
	})
	m.out["heap.minor_us"] = minorNs * scale / 1e3

	rt := aot.NewRuntime(heap.New(cpu.NewDefault(), heap.DefaultConfig()))
	d := rt.NewDict()
	const keys = 1024
	for i := 0; i < keys; i++ {
		rt.DictSet(d, heap.IntVal(int64(i*7)), heap.IntVal(int64(i)))
	}
	m.perOp("aot.dict_get_ns", func(n int) {
		for i := 0; i < n; i++ {
			v, _ := rt.DictGet(d, heap.IntVal(int64(i%keys*7)))
			sink += uint64(v.I)
		}
	})
	m.perOp("aot.dict_set_ns", func(n int) {
		for i := 0; i < n; i++ {
			rt.DictSet(d, heap.IntVal(int64(i%keys*7)), heap.IntVal(int64(i)))
		}
	})
	a, _ := aot.BigFromString("314159265358979323846264338327950288419716939937510")
	b, _ := aot.BigFromString("271828182845904523536028747135266249775724709369995")
	m.perOp("aot.bigmul_ns", func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(rt.BigintMul(a, b).NumDigits())
		}
	})
}

// frontends times lexing, parsing and compiling every guest source.
func (m *micro) frontends() {
	var failed bool
	scale := m.span("pylang", "pylang.frontend_ms", func() {
		vm := pylang.New(cpu.NewDefault(), pylang.Config{Profile: mtjit.ReferenceProfile()})
		t0 := time.Now()
		for _, p := range bench.All() {
			if _, err := vm.CompileModule(p.Name, p.Source); err != nil {
				failed = true
			}
		}
		m.out["pylang.frontend_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	})
	m.out["pylang.frontend_ms"] *= scale
	scale = m.span("sklang", "sklang.frontend_ms", func() {
		var total time.Duration
		for _, p := range bench.All() {
			if p.SkSource == "" {
				continue
			}
			vm := pylang.New(cpu.NewDefault(), pylang.Config{Profile: mtjit.CustomVMProfile()})
			vm.UnicodeStrings = false
			t0 := time.Now()
			if err := sklang.Load(vm, p.SkSource); err != nil {
				failed = true
			}
			total += time.Since(t0)
		}
		m.out["sklang.frontend_ms"] = float64(total.Nanoseconds()) / 1e6
	})
	m.out["sklang.frontend_ms"] *= scale
	if failed {
		m.out["pylang.frontend_ms"], m.out["sklang.frontend_ms"] = 0, 0
	}
}

// controller times a loop-header crossing with the tier controller
// detached (static thresholds) and adaptive.
func (m *micro) controller() {
	engine := func(adaptive bool) *mtjit.Engine {
		h := heap.New(cpu.NewDefault(), heap.DefaultConfig())
		cfg := mtjit.DefaultConfig()
		// Thresholds no loop reaches: every crossing takes the counting path.
		cfg.Threshold = 1 << 30
		if adaptive {
			cfg.Adaptive = true
			cfg.MethodThreshold = 1 << 30
		}
		return mtjit.NewEngineConfig(aot.NewRuntime(h), mtjit.FrameworkProfile(), cfg)
	}
	key := mtjit.GreenKey{CodeID: 1, PC: 16}
	for name, e := range map[string]*mtjit.Engine{"mtjit.ctl_detached_ns": engine(false), "mtjit.ctl_adaptive_ns": engine(true)} {
		e := e
		m.perOp(name, func(n int) {
			for i := 0; i < n; i++ {
				sink += uint64(e.CountAtHeader(key))
			}
		})
	}
}

func (m *micro) telemetry() {
	reg := telemetry.NewRegistry()
	c := reg.Counter("bench_counter_total", "benchmark micro-driver counter")
	h := reg.Histogram("bench_histogram", "benchmark micro-driver histogram")
	m.perOp("telemetry.counter_inc_ns", func(n int) {
		for i := 0; i < n; i++ {
			c.Inc()
		}
	})
	m.perOp("telemetry.histogram_observe_ns", func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(uint64(i))
		}
	})
	// A worker's registry is what /metrics exposes in the cluster.
	wreg := cluster.NewWorker(cluster.WorkerConfig{Name: "micro"}).Registry()
	m.perOp("telemetry.expose_us", func(n int) {
		for i := 0; i < n; i++ {
			_ = wreg.WritePrometheus(io.Discard)
		}
	})
	m.out["telemetry.expose_us"] /= 1e3
}

func (m *micro) reqtrace() {
	rec := reqtrace.NewRecorder(reqtrace.Config{Process: "micro"})
	m.perOp("reqtrace.span_ns", func(n int) {
		for i := 0; i < n; i += 2 {
			root := rec.StartTrace(reqtrace.Context{}, reqtrace.KindRun, "richards/pypy")
			root.StartChild(reqtrace.KindMemo, "richards/pypy").End()
			root.End()
		}
	})
	trees := rec.Trees(0)
	m.perOp("reqtrace.chrome_us_per_tree", func(n int) {
		for i := 0; i < n; i += len(trees) {
			_ = reqtrace.WriteChrome(io.Discard, trees)
		}
	})
	m.out["reqtrace.chrome_us_per_tree"] /= 1e3
}

const fixtureDir = "internal/bench/testdata/traces"

// traces times the codec and the allocation replay on the committed
// fixtures.
func (m *micro) traces() error {
	var progs []bench.Program
	var err error
	scale := m.span("bench", "bench.load_traces_ms", func() {
		t0 := time.Now()
		progs, err = bench.LoadTraceDir(fixtureDir)
		m.out["bench.load_traces_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	})
	if err != nil {
		return err
	}
	m.out["bench.load_traces_ms"] *= scale

	var blobs [][]byte
	var bytesTotal, events float64
	for _, p := range progs {
		blobs = append(blobs, p.Trace.Encode())
		bytesTotal += float64(len(blobs[len(blobs)-1]))
		events += float64(p.Trace.Summary.Events)
	}
	m.perOp("trace.encode_mb_s", func(n int) {
		for i := 0; i < n; i++ {
			for _, p := range progs {
				sink += uint64(len(p.Trace.Encode()))
			}
		}
	})
	m.perOp("trace.decode_mb_s", func(n int) {
		for i := 0; i < n; i++ {
			for _, b := range blobs {
				if _, err := trace.Decode(b); err != nil {
					panic(err) // fixtures were just encoded from decoded traces
				}
			}
		}
	})
	for _, name := range []string{"trace.encode_mb_s", "trace.decode_mb_s"} {
		m.out[name] = bytesTotal / 1e6 / (m.out[name] / 1e9) // ns per pass over all fixtures -> MB/s
	}
	m.perOp("trace.replay_ns_per_event", func(n int) {
		for i := 0; i < n; i++ {
			for _, p := range progs {
				h := heap.New(cpu.NewDefault(), heap.DefaultConfig())
				if _, err := trace.ReplayAllocs(h, p.Trace); err != nil {
					panic(err) // committed fixtures replay; TestTraceFixtures holds that
				}
			}
		}
	})
	m.out["trace.replay_ns_per_event"] /= events
	return nil
}

// harness times the memo key, a memo hit, and what the Runner adds to a
// miss over bare harness.Run.
func (m *micro) harness() error {
	c := cell{bench.ByName("telco"), harness.VMPyPyJIT}
	opt := harness.Options{Threshold: 40}
	m.perOp("harness.key_ns", func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(len(harness.Key(c.prog, c.kind, opt).Bench))
		}
	})
	r := harness.NewRunner(1)
	if _, err := r.Get(c.prog, c.kind, opt); err != nil {
		return err
	}
	m.perOp("harness.memo_hit_ns", func(n int) {
		for i := 0; i < n; i++ {
			res, _ := r.Get(c.prog, c.kind, opt)
			sink += res.Instrs
		}
	})
	var bare, miss []float64
	m.span("harness", "harness.runner_miss_overhead_x", func() {
		for rep := 0; rep < 9; rep++ {
			t0 := time.Now()
			_, _ = harness.Run(c.prog, c.kind, opt)
			bare = append(bare, float64(time.Since(t0).Nanoseconds()))
			t0 = time.Now()
			_, _ = harness.NewRunner(1).Get(c.prog, c.kind, opt)
			miss = append(miss, float64(time.Since(t0).Nanoseconds()))
		}
	})
	m.out["harness.runner_miss_overhead_x"] = median(miss) / median(bare)
	return nil
}

// tiersAndObservers runs fixed cells under each tier on its own and under
// each observer, interleaved with the plain run so that the machine's
// drift cancels in the ratios.
func (m *micro) tiersAndObservers() error {
	never := 1 << 20 // a threshold no loop of these cells reaches
	tierCells := []*bench.Program{bench.ByName("richards"), bench.ByName("raytrace_simple"), bench.ByName("json_bench")}
	tiers := []struct {
		name string
		kind harness.VMKind
		opt  harness.Options
	}{
		{"mtjit.trace_ns_per_sim_instr", harness.VMPyPyJIT, harness.Options{}},
		{"mtjit.baseline_ns_per_sim_instr", harness.VMPyPyTiered, harness.Options{Threshold: never}},
		{"mtjit.method_ns_per_sim_instr", harness.VMPyPyAmalg, harness.Options{Threshold: never, BaselineThreshold: never}},
		{"mtjit.adaptive_ns_per_sim_instr", harness.VMPyPyAdaptive, harness.Options{}},
	}
	const reps = 3
	var err error
	for _, t := range tiers {
		var wall, instrs float64
		scale := m.span("mtjit", t.name, func() {
			for _, p := range tierCells {
				var ns []float64
				for rep := 0; rep < reps; rep++ {
					t0 := time.Now()
					res, e := harness.Run(p, t.kind, t.opt)
					if e != nil {
						err = e
						return
					}
					ns = append(ns, float64(time.Since(t0).Nanoseconds()))
					if rep == 0 {
						instrs += float64(res.Instrs)
					}
				}
				wall += median(ns)
			}
		})
		if err != nil {
			return err
		}
		m.out[t.name] = wall * scale / instrs
	}

	live := harness.NewLiveTracker(0)
	rec := reqtrace.NewRecorder(reqtrace.Config{Process: "micro"})
	observers := []struct {
		name string
		run  func(c cell) error
	}{
		{"", func(c cell) error { _, err := harness.Run(c.prog, c.kind, harness.Options{}); return err }},
		{"profile.overhead_x", func(c cell) error {
			_, err := harness.Run(c.prog, c.kind, harness.Options{Profile: true})
			return err
		}},
		{"trace.record_overhead_x", func(c cell) error {
			_, err := harness.Run(c.prog, c.kind, harness.Options{Record: true})
			return err
		}},
		{"harness.live_overhead_x", func(c cell) error {
			_, err := harness.Run(c.prog, c.kind, harness.Options{Live: live})
			return err
		}},
		{"reqtrace.vmspan_overhead_x", func(c cell) error {
			sp := rec.StartTrace(reqtrace.Context{}, reqtrace.KindSimulate, c.id())
			defer sp.End()
			_, err := harness.Run(c.prog, c.kind, harness.Options{ReqTrace: sp})
			return err
		}},
		{"telemetry.stack_overhead_x", func(c cell) error {
			harness.InstallTelemetry(telemetry.NewRegistry())
			defer harness.InstallTelemetry(nil)
			_, err := harness.Run(c.prog, c.kind, harness.Options{})
			return err
		}},
		{"pintool.sample_overhead_x", func(c cell) error {
			_, err := harness.Run(c.prog, c.kind, harness.Options{SampleInterval: harness.DefaultSampleInterval})
			return err
		}},
	}
	cells := observerCells()
	ns := make([][][]float64, len(observers)) // observer, cell, rep
	for o := range ns {
		ns[o] = make([][]float64, len(cells))
	}
	m.span("harness", "observers attached and detached", func() {
		for rep := 0; rep < reps; rep++ {
			for ci, c := range cells {
				for o, ob := range observers {
					t0 := time.Now()
					if e := ob.run(c); e != nil {
						err = e
						return
					}
					ns[o][ci] = append(ns[o][ci], float64(time.Since(t0).Nanoseconds()))
				}
			}
		}
	})
	if err != nil {
		return err
	}
	total := func(o int) float64 {
		var t float64
		for ci := range cells {
			t += median(ns[o][ci])
		}
		return t
	}
	for o := 1; o < len(observers); o++ {
		m.out[observers[o].name] = total(o) / total(0)
	}
	return nil
}

// clusterPaths times the cell id, the ring, the wire codec and the store.
func (m *micro) clusterPaths() error {
	p := bench.ByName("richards")
	res, err := harness.Run(p, harness.VMPyPyTiered, harness.Options{})
	if err != nil {
		return err
	}
	key := harness.Key(p, harness.VMPyPyTiered, harness.Options{})
	m.perOp("cluster.idof_ns", func(n int) {
		for i := 0; i < n; i++ {
			id := cluster.IDOf(key)
			sink += uint64(id[0])
		}
	})
	ring := cluster.NewRing([]string{"http://w0", "http://w1", "http://w2"}, 0)
	id := cluster.IDOf(key)
	m.perOp("cluster.ring_lookup_ns", func(n int) {
		for i := 0; i < n; i++ {
			id[0] = byte(i)
			sink += uint64(len(ring.Lookup(id)))
		}
	})
	wire := cluster.FromResult(res)
	blob := wire.Encode()
	m.out["cluster.wire_bytes"] = float64(len(blob))
	m.perOp("cluster.wire_encode_us", func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(len(wire.Encode()))
		}
	})
	m.perOp("cluster.wire_decode_us", func(n int) {
		for i := 0; i < n; i++ {
			if _, err := cluster.DecodeResult(blob); err != nil {
				panic(err) // just encoded
			}
		}
	})

	dir, err := tempStoreDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := cluster.OpenStore(dir)
	if err != nil {
		return err
	}
	var stored uint32
	m.perOp("cluster.store_put_us", func(n int) {
		for i := 0; i < n; i++ {
			stored++
			id[0], id[1], id[2] = byte(stored), byte(stored>>8), byte(stored>>16)
			if err := st.Put(id, blob); err != nil {
				panic(err) // a temp dir the benchmark just made
			}
		}
	})
	m.perOp("cluster.store_get_us", func(n int) {
		for i := 0; i < n; i++ {
			k := uint32(i)%stored + 1
			id[0], id[1], id[2] = byte(k), byte(k>>8), byte(k>>16)
			if _, err := st.Get(id); err != nil {
				panic(err) // put above
			}
		}
	})
	for _, name := range []string{"cluster.wire_encode_us", "cluster.wire_decode_us", "cluster.store_put_us", "cluster.store_get_us"} {
		m.out[name] /= 1e3
	}
	return nil
}

// servers sends memo hits, one client, to a worker directly, through a
// frontend, and to the single-process daemon.
func (m *micro) servers() error {
	var closers []func()
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	listen := func(h http.Handler) (string, error) {
		url, stop, err := serveLoopback(h)
		if err == nil {
			closers = append(closers, stop)
		}
		return url, err
	}
	cat, err := cluster.NewCatalog("")
	if err != nil {
		return err
	}
	worker, err := listen(cluster.NewWorker(cluster.WorkerConfig{Name: "micro", Workers: 1, Catalog: cat}).Handler())
	if err != nil {
		return err
	}
	upstream := &http.Transport{}
	frontend, err := listen(cluster.NewFrontend(cluster.FrontendConfig{
		Workers: []string{worker}, Catalog: cat, Client: &http.Client{Transport: upstream},
	}).Handler())
	if err != nil {
		return err
	}
	daemon, err := listen(mtjitd.New(mtjitd.Config{Workers: 1}).Handler())
	if err != nil {
		return err
	}
	// mtjitd.New installs the stack telemetry process-wide; detach it so
	// that nothing after this probe runs attached.
	defer harness.InstallTelemetry(nil)
	client := &http.Client{Transport: &http.Transport{}}
	closers = append(closers, client.CloseIdleConnections, upstream.CloseIdleConnections)

	body, err := json.Marshal(cluster.Request{Bench: "telco", VM: string(harness.VMPyPyJIT)})
	if err != nil {
		return err
	}
	probe := func(name, base string) (float64, error) {
		var ns []float64
		var perr error
		scale := m.span(layerOf(name), name, func() {
			for i := 0; i < 1200; i++ {
				t0 := time.Now()
				resp, err := client.Post(base+"/run", "application/json", bytes.NewReader(body))
				if err != nil {
					perr = err
					return
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("%s: status %d", base, resp.StatusCode)
				}
				if err != nil {
					perr = err
					return
				}
				if i >= 200 { // the first simulates, the next ones open connections
					ns = append(ns, float64(time.Since(t0).Nanoseconds()))
				}
			}
		})
		return median(ns) * scale / 1e3, perr
	}
	w, err := probe("cluster.worker_memo_p50_us", worker)
	if err != nil {
		return err
	}
	f, err := probe("cluster.frontend_hop_p50_us", frontend)
	if err != nil {
		return err
	}
	d, err := probe("mtjitd.run_memo_p50_us", daemon)
	if err != nil {
		return err
	}
	m.out["cluster.worker_memo_p50_us"] = w
	m.out["cluster.frontend_hop_p50_us"] = f - w
	m.out["mtjitd.run_memo_p50_us"] = d
	return nil
}
