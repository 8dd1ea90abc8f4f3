package mtjit

import (
	"testing"

	"metajit/internal/aot"
	"metajit/internal/cpu"
	"metajit/internal/heap"
)

// TestConfigNormalize pins the clamping contract for degenerate
// threshold orderings: an engine constructed through any Config must
// never run with an inverted or disabled-by-accident tier ordering.
func TestConfigNormalize(t *testing.T) {
	d := DefaultConfig()
	cases := []struct {
		name string
		in   Config
		want Config
	}{
		{
			// The zero Config is the "just give me defaults" spelling.
			name: "zero",
			in:   Config{},
			want: d,
		},
		{
			// Negative core thresholds fall back to the defaults, same
			// as zero — a negative count can never be reached.
			name: "negative-core",
			in:   Config{Threshold: -3, BridgeThreshold: -1, TraceLimit: -5, MaxAborts: -2},
			want: d,
		},
		{
			// Negative tier thresholds disable the tier (0), they do not
			// fall back to a default that would silently enable it.
			name: "negative-tiers",
			in: Config{Threshold: 50, BridgeThreshold: 10, TraceLimit: 100, MaxAborts: 3,
				BaselineThreshold: -7, MethodThreshold: -1},
			want: Config{Threshold: 50, BridgeThreshold: 10, TraceLimit: 100, MaxAborts: 3},
		},
		{
			// BaselineThreshold at the tracing threshold is pulled below
			// it: tier-1 must engage before promotion or it never runs.
			name: "baseline-at-threshold",
			in: Config{Threshold: 20, BridgeThreshold: 5, TraceLimit: 100, MaxAborts: 3,
				BaselineThreshold: 20},
			want: Config{Threshold: 20, BridgeThreshold: 5, TraceLimit: 100, MaxAborts: 3,
				BaselineThreshold: 19},
		},
		{
			// ...and the same for an inverted ordering.
			name: "baseline-above-threshold",
			in: Config{Threshold: 20, BridgeThreshold: 5, TraceLimit: 100, MaxAborts: 3,
				BaselineThreshold: 1 << 20},
			want: Config{Threshold: 20, BridgeThreshold: 5, TraceLimit: 100, MaxAborts: 3,
				BaselineThreshold: 19},
		},
		{
			// Baseline clamping happens after Threshold defaulting, so a
			// zero Threshold plus a huge BaselineThreshold still lands
			// below the default tracing threshold.
			name: "baseline-clamp-against-defaulted-threshold",
			in:   Config{BaselineThreshold: 1 << 20},
			want: Config{Threshold: d.Threshold, BridgeThreshold: d.BridgeThreshold,
				TraceLimit: d.TraceLimit, MaxAborts: d.MaxAborts,
				BaselineThreshold: d.Threshold - 1},
		},
		{
			// MethodThreshold has no ordering constraint against
			// Threshold: method promotion above the tracing threshold is
			// a legal (trace-first) amalgamation, and below it is a legal
			// method-first one. Both pass through untouched.
			name: "method-orderings-preserved",
			in: Config{Threshold: 20, BridgeThreshold: 5, TraceLimit: 100, MaxAborts: 3,
				MethodThreshold: 1 << 20, Adaptive: true},
			want: Config{Threshold: 20, BridgeThreshold: 5, TraceLimit: 100, MaxAborts: 3,
				MethodThreshold: 1 << 20, Adaptive: true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.in.Normalize(); got != tc.want {
				t.Errorf("Normalize(%+v):\n  got  %+v\n  want %+v", tc.in, got, tc.want)
			}
		})
	}
}

// TestNewEngineConfigClamps proves clamping happens at engine
// construction, not just in the pure Normalize helper: a degenerate
// Config must never reach the tier state machine.
func TestNewEngineConfigClamps(t *testing.T) {
	mach := cpu.New(cpu.DefaultParams())
	h := heap.New(mach, heap.DefaultConfig())
	rt := aot.NewRuntime(h)

	e := NewEngineConfig(rt, FrameworkProfile(), Config{
		Threshold:         0,
		BridgeThreshold:   -1,
		BaselineThreshold: 1 << 30,
		MethodThreshold:   -9,
		Adaptive:          true,
	})
	d := DefaultConfig()
	if e.Threshold != d.Threshold || e.BridgeThreshold != d.BridgeThreshold ||
		e.TraceLimit != d.TraceLimit || e.MaxAborts != d.MaxAborts {
		t.Errorf("core thresholds not defaulted: threshold=%d bridge=%d limit=%d aborts=%d",
			e.Threshold, e.BridgeThreshold, e.TraceLimit, e.MaxAborts)
	}
	if e.BaselineThreshold != d.Threshold-1 {
		t.Errorf("BaselineThreshold = %d, want %d (clamped below Threshold)",
			e.BaselineThreshold, d.Threshold-1)
	}
	if e.MethodThreshold != 0 {
		t.Errorf("MethodThreshold = %d, want 0 (negative disables the tier)", e.MethodThreshold)
	}
	if !e.Adaptive {
		t.Error("Adaptive flag dropped at construction")
	}

	// The adaptive controller on an engine whose method tier is disabled
	// must behave exactly like the static engine: traceThresholdFor is
	// the plain threshold for every site.
	if got := e.traceThresholdFor(GreenKey{CodeID: 1, PC: 2}); got != e.Threshold {
		t.Errorf("traceThresholdFor on method-less adaptive engine = %d, want %d", got, e.Threshold)
	}
}
