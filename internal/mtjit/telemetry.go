package mtjit

import (
	"fmt"
	"sync/atomic"

	"metajit/internal/telemetry"
)

// engineMetrics is the engine's live telemetry: process-wide counters
// aggregated across every Engine instance (a daemon runs many engines —
// one per simulated VM — and wants compiler activity totals, the way
// RPython's jitlog surfaces them to running users). It complements, not
// replaces, the per-engine EngineStats snapshot.
type engineMetrics struct {
	loops               *telemetry.Counter
	bridges             *telemetry.Counter
	aborts              *telemetry.Counter
	guardFails          *telemetry.Counter
	invalidated         *telemetry.Counter
	promotions          *telemetry.Counter
	opsRecorded         *telemetry.Counter
	opsRemoved          *telemetry.Counter
	tiers               [NumTiers]tierMetrics
	ctlBackoffDecisions *telemetry.Counter
	ctlEarlyPromotions  *telemetry.Counter
	ctlMethodDecisions  *telemetry.Counter
}

// tierMetrics is one lower tier's counters.
type tierMetrics struct {
	compiles, deopts, invalidated *telemetry.Counter
}

// tele holds the installed metrics; nil until InstallTelemetry. An
// atomic pointer keeps installation racefree against engines running on
// other goroutines, and the per-site cost without a registry is one
// atomic load and a nil test.
var tele atomic.Pointer[engineMetrics]

// telem returns the installed metrics, or nil.
func telem() *engineMetrics { return tele.Load() }

// InstallTelemetry registers the engine's metric families on r and
// routes all subsequent compiler activity (from every engine in the
// process) into them. Installing a nil registry detaches telemetry.
func InstallTelemetry(r *telemetry.Registry) {
	if r == nil {
		tele.Store(nil)
		return
	}
	m := &engineMetrics{
		loops:               r.Counter("mtjit_traces_compiled_total", "Traces installed by the meta-tracing JIT.", "kind", "loop"),
		bridges:             r.Counter("mtjit_traces_compiled_total", "Traces installed by the meta-tracing JIT.", "kind", "bridge"),
		aborts:              r.Counter("mtjit_trace_aborts_total", "Recordings abandoned before installation."),
		guardFails:          r.Counter("mtjit_guard_failures_total", "Guard failures during trace execution."),
		invalidated:         r.Counter("mtjit_invalidations_total", "Compiled code invalidated by a global mutation or a tier promotion.", "tier", "trace"),
		promotions:          r.Counter("mtjit_baseline_promotions_total", "Loop headers promoted from tier-1 baseline code to a compiled trace."),
		opsRecorded:         r.Counter("mtjit_trace_ops_total", "IR operations recorded into traces.", "stage", "recorded"),
		opsRemoved:          r.Counter("mtjit_trace_ops_total", "IR operations recorded into traces.", "stage", "removed"),
		ctlBackoffDecisions: r.Counter("mtjit_controller_decisions_total", "Tier-controller promotion decisions.", "kind", "trace_backoff"),
		ctlEarlyPromotions:  r.Counter("mtjit_controller_decisions_total", "Tier-controller promotion decisions.", "kind", "trace_early"),
		ctlMethodDecisions:  r.Counter("mtjit_controller_decisions_total", "Tier-controller promotion decisions.", "kind", "method"),
	}
	for t := range m.tiers {
		name := tierTable[t].name
		m.tiers[t] = tierMetrics{
			compiles:    r.Counter("mtjit_"+name+"_compiles_total", fmt.Sprintf("Tier-%d %s compilations installed.", t+1, name)),
			deopts:      r.Counter("mtjit_"+name+"_deopts_total", fmt.Sprintf("Tier-%d generic-guard deoptimizations.", t+1)),
			invalidated: r.Counter("mtjit_invalidations_total", "Compiled code invalidated by a global mutation or a tier promotion.", "tier", name),
		}
	}
	tele.Store(m)
}
