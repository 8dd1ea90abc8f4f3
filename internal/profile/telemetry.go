package profile

import (
	"sync/atomic"

	"metajit/internal/telemetry"
)

// profMetrics aggregates profiler activity across every profiled run in
// the process. The counters are flushed once per run at Profiler.Finish
// — the annotation hot path never touches them.
type profMetrics struct {
	spans  *telemetry.Counter
	events *telemetry.Counter
	errors *telemetry.Counter
}

// tele holds the installed metrics; nil until InstallTelemetry.
var tele atomic.Pointer[profMetrics]

// telem returns the installed metrics, or nil.
func telem() *profMetrics { return tele.Load() }

// InstallTelemetry registers the profiler's metric families on r.
// Installing a nil registry detaches telemetry.
func InstallTelemetry(r *telemetry.Registry) {
	if r == nil {
		tele.Store(nil)
		return
	}
	m := &profMetrics{
		spans:  r.Counter("profile_spans_total", "Spans opened by the stream consumer."),
		events: r.Counter("profile_events_total", "Annotation events seen by the stream."),
		errors: r.Counter("profile_errors_total", "Span-grammar, change-locality and phase-agreement violations found by profiled runs (should stay zero)."),
	}
	tele.Store(m)
}
