package main

// metricDef names one metric the benchmark prints. BENCHMARK.json is
// generated from these tables (-spec), so the two cannot drift.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists the metrics of the untraced run. Every workload prints
// every one of them, so each is defined on all four; README.md says what
// the operation and the simulating region of each workload are.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"host_ns_per_sim_instr", "ns", lower, 0.25},
	{"host_ns_per_sim_instr_gmean", "ns", lower, 0.25},
	{"host_cpu_ns_per_sim_instr", "ns", lower, 0.25},
	{"host_allocs_per_kinstr", "1/kinstr", lower, 0.02},
	{"peak_rss_mb", "MB", lower, 0.25},
	{"op_p50_us", "us", lower, 0.25},
	{"op_p90_us", "us", lower, 0.25},
}

// perLayer lists the metrics of the traced run, <module>.<metric>. A
// workload that does not exercise a layer prints 0 for its workload-derived
// metrics; the micro-drivers run in every traced run.
var perLayer = []metricDef{
	// cpu (+isa): retire micro-paths, then exact simulated counts.
	{"cpu.ops_ns", "ns", lower, 0},
	{"cpu.block_ns", "ns", lower, 0},
	{"cpu.load_ns", "ns", lower, 0},
	{"cpu.store_ns", "ns", lower, 0},
	{"cpu.branch_ns", "ns", lower, 0},
	{"cpu.indirect_ns", "ns", lower, 0},
	{"cpu.annot_ns", "ns", lower, 0},
	{"cpu.sim_instrs", "count", lower, 0},
	{"cpu.sim_cycles", "count", lower, 0},
	{"cpu.sim_l1_miss", "count", lower, 0},
	{"cpu.sim_mispredicts", "count", lower, 0},
	// core/pintool: annotation fan-out to the harness's standard observers.
	{"pintool.annot_ns", "ns", lower, 0},
	{"pintool.sample_overhead_x", "x", lower, 0},
	// heap
	{"heap.alloc_ns", "ns", lower, 0},
	{"heap.minor_us", "us", lower, 0},
	{"heap.minor_gcs", "count", lower, 0},
	{"heap.major_gcs", "count", lower, 0},
	{"heap.promoted_bytes", "count", lower, 0},
	// aot
	{"aot.dict_get_ns", "ns", lower, 0},
	{"aot.dict_set_ns", "ns", lower, 0},
	{"aot.bigmul_ns", "ns", lower, 0},
	// guests
	{"pylang.frontend_ms", "ms", lower, 0},
	{"pylang.reference_ns_per_sim_instr", "ns", lower, 0},
	{"pylang.interp_ns_per_sim_instr", "ns", lower, 0},
	{"sklang.frontend_ms", "ms", lower, 0},
	{"sklang.racket_ns_per_sim_instr", "ns", lower, 0},
	{"sklang.pycket_ns_per_sim_instr", "ns", lower, 0},
	{"static.c_ns_per_sim_instr", "ns", lower, 0},
	// mtjit: one row per tier on fixed cells, the controller, then exact
	// counts and simulated phase shares over the workload's cells.
	{"mtjit.trace_ns_per_sim_instr", "ns", lower, 0},
	{"mtjit.baseline_ns_per_sim_instr", "ns", lower, 0},
	{"mtjit.method_ns_per_sim_instr", "ns", lower, 0},
	{"mtjit.adaptive_ns_per_sim_instr", "ns", lower, 0},
	{"mtjit.ctl_detached_ns", "ns", lower, 0},
	{"mtjit.ctl_adaptive_ns", "ns", lower, 0},
	{"mtjit.loops_compiled", "count", higher, 0},
	{"mtjit.bridges_compiled", "count", higher, 0},
	{"mtjit.aborts", "count", lower, 0},
	{"mtjit.abort_share", "1", lower, 0},
	{"mtjit.ops_recorded", "count", lower, 0},
	{"mtjit.ops_removed_share", "1", higher, 0},
	{"mtjit.guard_failures", "count", lower, 0},
	{"mtjit.baselines_compiled", "count", higher, 0},
	{"mtjit.methods_compiled", "count", higher, 0},
	{"mtjit.deopts", "count", lower, 0},
	{"mtjit.sim_share_interp", "1", lower, 0},
	{"mtjit.sim_share_tracing", "1", lower, 0},
	{"mtjit.sim_share_jit", "1", higher, 0},
	{"mtjit.sim_share_blackhole", "1", lower, 0},
	{"mtjit.sim_share_baseline", "1", higher, 0},
	{"mtjit.sim_share_method", "1", higher, 0},
	// observers: host time attached ÷ detached on the fixed observer cells.
	{"profile.overhead_x", "x", lower, 0},
	{"trace.record_overhead_x", "x", lower, 0},
	{"harness.live_overhead_x", "x", lower, 0},
	{"reqtrace.vmspan_overhead_x", "x", lower, 0},
	{"telemetry.stack_overhead_x", "x", lower, 0},
	// trace codec and replay over the committed fixtures
	{"trace.encode_mb_s", "MB/s", higher, 0},
	{"trace.decode_mb_s", "MB/s", higher, 0},
	{"trace.replay_ns_per_event", "ns", lower, 0},
	// telemetry
	{"telemetry.counter_inc_ns", "ns", lower, 0},
	{"telemetry.histogram_observe_ns", "ns", lower, 0},
	{"telemetry.expose_us", "us", lower, 0},
	// reqtrace
	{"reqtrace.span_ns", "ns", lower, 0},
	{"reqtrace.chrome_us_per_tree", "us", lower, 0},
	// harness
	{"harness.key_ns", "ns", lower, 0},
	{"harness.memo_hit_ns", "ns", lower, 0},
	{"harness.runner_miss_overhead_x", "x", lower, 0},
	{"harness.regen_s", "s", lower, 0},
	{"harness.regen_cpu_s", "s", lower, 0},
	{"harness.regen_simulations", "count", lower, 0},
	{"harness.regen_memo_hit_share", "1", higher, 0},
	{"harness.regen_parallel_eff", "1", higher, 0},
	// cluster: micro-paths, probes with one client, then serve_mix phases.
	{"cluster.idof_ns", "ns", lower, 0},
	{"cluster.ring_lookup_ns", "ns", lower, 0},
	{"cluster.wire_encode_us", "us", lower, 0},
	{"cluster.wire_decode_us", "us", lower, 0},
	{"cluster.wire_bytes", "count", lower, 0},
	{"cluster.store_put_us", "us", lower, 0},
	{"cluster.store_get_us", "us", lower, 0},
	{"cluster.worker_memo_p50_us", "us", lower, 0},
	{"cluster.frontend_hop_p50_us", "us", lower, 0},
	{"cluster.cold_phase_s", "s", lower, 0},
	{"cluster.cold_p50_ms", "ms", lower, 0},
	{"cluster.cold_p90_ms", "ms", lower, 0},
	{"cluster.cold_vs_bare_x", "x", lower, 0},
	{"cluster.memo_p50_us", "us", lower, 0},
	{"cluster.memo_p90_us", "us", lower, 0},
	{"cluster.memo_p99_us", "us", lower, 0},
	{"cluster.memo_rps", "1/s", higher, 0},
	{"cluster.store_p50_us", "us", lower, 0},
	{"cluster.store_p90_us", "us", lower, 0},
	{"cluster.store_p99_us", "us", lower, 0},
	{"cluster.served_simulated", "count", lower, 0},
	{"cluster.served_memo", "count", higher, 0},
	{"cluster.served_store", "count", higher, 0},
	{"cluster.shed", "count", lower, 0},
	{"cluster.failovers", "count", lower, 0},
	{"cluster.dedup", "count", lower, 0},
	{"cluster.self_us_route", "us", lower, 0},
	{"cluster.self_us_attempt", "us", lower, 0},
	{"cluster.self_us_run", "us", lower, 0},
	{"cluster.self_us_memo", "us", lower, 0},
	{"cluster.self_us_store_read", "us", lower, 0},
	{"cluster.self_us_store_write", "us", lower, 0},
	{"cluster.self_us_simulate", "us", lower, 0},
	{"mtjitd.run_memo_p50_us", "us", lower, 0},
	{"bench.load_traces_ms", "ms", lower, 0},
	// the benchmark's own: tells a noisy machine from a regression.
	{"host.calib_ns", "ns", lower, 0},
	{"host.calib_drift_x", "x", lower, 0},
	{"host.trace_overhead_x", "x", lower, 0},
}

// workloadDef is one entry of BENCHMARK.json's workloads.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"interp_sweep", "reference and framework interpreters, racket and static kernels through bare harness.Run: cpu, pylang, sklang, aot, heap do the work and the JIT does none"},
	{"jit_sweep", "the four JIT strategies and pycket through bare harness.Run: recorder, optimizer, executor, all three tiers and the controller do the work and the interpreter share is small"},
	{"paper_regen", "the exact cmd/experiments -exp all path on a fresh memoizing Runner at -j nproc: the only workload with prefetch, parallelism, memo hits, sampled cells and rendering on the path"},
	{"serve_mix", "closed-loop clients against an in-process 3-worker cluster over loopback: cold cells with observers attached and store writes, then store reads, then memo hits"},
}
