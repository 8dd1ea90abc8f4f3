package harness

import (
	"sync/atomic"

	"metajit/internal/heap"
	"metajit/internal/mtjit"
	"metajit/internal/telemetry"
)

// runCounts is what one finished run adds to the stack's series: the
// totals its Result already holds, plus the two counts a Result does not
// carry.
type runCounts struct {
	eng        mtjit.EngineStats
	gc         heap.Stats
	promotions int // mtjit.Engine.BaselinePromotions
	// spans, events and profErrs are the profiler's totals (zero when
	// no profiler was attached).
	spans, events uint64
	profErrs      int
}

// stackSeries is one series of the simulator stack's metric families and
// the count a finished run adds to it.
type stackSeries struct {
	name, help string
	labels     []string
	of         func(*runCounts) uint64
}

const (
	helpTraces      = "Traces installed by the meta-tracing JIT."
	helpInvalidated = "Compiled code invalidated by a global mutation or a tier promotion."
	helpOps         = "IR operations recorded into traces."
	helpDecisions   = "Tier-controller promotion decisions."
	helpGC          = "Garbage collections by generation."
)

func u64(n int) uint64 { return uint64(n) }

// stackTable lists every series of the mtjit_*, heap_* and profile_*
// families. Exposition sorts by family name and label set, so the order
// here never shows.
var stackTable = []stackSeries{
	{"mtjit_traces_compiled_total", helpTraces, []string{"kind", "loop"}, func(c *runCounts) uint64 { return u64(c.eng.LoopsCompiled) }},
	{"mtjit_traces_compiled_total", helpTraces, []string{"kind", "bridge"}, func(c *runCounts) uint64 { return u64(c.eng.BridgesCompiled) }},
	{"mtjit_trace_aborts_total", "Recordings abandoned before installation.", nil, func(c *runCounts) uint64 { return u64(c.eng.Aborts) }},
	{"mtjit_guard_failures_total", "Guard failures during trace execution.", nil, func(c *runCounts) uint64 { return c.eng.GuardFailures }},
	{"mtjit_invalidations_total", helpInvalidated, []string{"tier", "trace"}, func(c *runCounts) uint64 { return u64(c.eng.Invalidated) }},
	{"mtjit_invalidations_total", helpInvalidated, []string{"tier", "baseline"}, func(c *runCounts) uint64 { return u64(c.eng.BaselineInvalidated) }},
	{"mtjit_invalidations_total", helpInvalidated, []string{"tier", "method"}, func(c *runCounts) uint64 { return u64(c.eng.MethodInvalidated) }},
	{"mtjit_baseline_promotions_total", "Loop headers promoted from tier-1 baseline code to a compiled trace.", nil, func(c *runCounts) uint64 { return u64(c.promotions) }},
	{"mtjit_trace_ops_total", helpOps, []string{"stage", "recorded"}, func(c *runCounts) uint64 { return u64(c.eng.OpsRecorded) }},
	{"mtjit_trace_ops_total", helpOps, []string{"stage", "removed"}, func(c *runCounts) uint64 { return u64(c.eng.OpsRemoved) }},
	{"mtjit_baseline_compiles_total", "Tier-1 baseline compilations installed.", nil, func(c *runCounts) uint64 { return u64(c.eng.BaselinesCompiled) }},
	{"mtjit_baseline_deopts_total", "Tier-1 generic-guard deoptimizations.", nil, func(c *runCounts) uint64 { return c.eng.BaselineDeopts }},
	{"mtjit_method_compiles_total", "Tier-2 method compilations installed.", nil, func(c *runCounts) uint64 { return u64(c.eng.MethodsCompiled) }},
	{"mtjit_method_deopts_total", "Tier-2 generic-guard deoptimizations.", nil, func(c *runCounts) uint64 { return c.eng.MethodDeopts }},
	{"mtjit_controller_decisions_total", helpDecisions, []string{"kind", "trace_backoff"}, func(c *runCounts) uint64 { return u64(c.eng.CtlBackoffDecisions) }},
	{"mtjit_controller_decisions_total", helpDecisions, []string{"kind", "trace_early"}, func(c *runCounts) uint64 { return u64(c.eng.CtlEarlyPromotions) }},
	{"mtjit_controller_decisions_total", helpDecisions, []string{"kind", "method"}, func(c *runCounts) uint64 { return u64(c.eng.CtlMethodDecisions) }},
	{"heap_gc_collections_total", helpGC, []string{"gen", "minor"}, func(c *runCounts) uint64 { return c.gc.Minor }},
	{"heap_gc_collections_total", helpGC, []string{"gen", "major"}, func(c *runCounts) uint64 { return c.gc.Major }},
	{"heap_gc_skipped_total", "Collection requests dropped because a collection was already running.", nil, func(c *runCounts) uint64 { return c.gc.Skipped }},
	{"heap_promoted_bytes_total", "Bytes promoted from the nursery to the old generation.", nil, func(c *runCounts) uint64 { return c.gc.PromotedBytes }},
	{"profile_spans_total", "Spans opened by the stream consumer.", nil, func(c *runCounts) uint64 { return c.spans }},
	{"profile_events_total", "Annotation events seen by the stream.", nil, func(c *runCounts) uint64 { return c.events }},
	{"profile_errors_total", "Span-grammar, change-locality and phase-agreement violations found by profiled runs (should stay zero).", nil, func(c *runCounts) uint64 { return u64(c.profErrs) }},
}

// stack holds the installed counters, one per stackTable row; nil until
// InstallTelemetry. It is process-wide: every run in the process adds to
// the same series.
var stack atomic.Pointer[[]*telemetry.Counter]

// InstallTelemetry registers the simulator stack's metric families on r:
// from then on every run that finishes in this process adds its JIT, GC
// and profiler totals to them, once, in finish. A series therefore moves
// when a run ends, not while it runs; a run that fails adds nothing.
// Installing nil detaches the registry.
func InstallTelemetry(r *telemetry.Registry) {
	if r == nil {
		stack.Store(nil)
		return
	}
	cs := make([]*telemetry.Counter, len(stackTable))
	for i, s := range stackTable {
		cs[i] = r.Counter(s.name, s.help, s.labels...)
	}
	stack.Store(&cs)
}

// count adds the finished run's totals to the installed series.
func (r *run) count(res *Result) {
	cs := stack.Load()
	if cs == nil {
		return
	}
	c := runCounts{eng: res.EngStats, gc: res.GC}
	if r.eng != nil {
		c.promotions = r.eng.BaselinePromotions()
	}
	if r.prof != nil {
		c.spans, c.events, c.profErrs = r.prof.Stream.Spans, r.prof.Stream.Events, r.prof.ErrorCount()
	}
	for i, s := range stackTable {
		(*cs)[i].Add(s.of(&c))
	}
}
