package mtjit

import "metajit/internal/isa"

// This file implements the tier controller: the state machine every
// loop-header crossing runs through (CountAtHeader), and its adaptive
// mode, the replacement for the static BaselineThreshold/Threshold
// pair. Instead of one global tracing threshold, each loop header gets
// an effective threshold derived from the engine's own observed event
// history — trace-abort counts back promotion off, a clean tier-1
// warmup slope pulls it forward, and guard-failure traffic feeds the
// method tier's hostility judgment (Engine.hostile).
//
// Determinism contract: every controller input is per-Engine state
// that is itself maintained deterministically (abort counts, baseline
// enter/deopt counts, per-header guard-failure attribution). The
// controller reads no process-wide state, which parallel runs would
// share and so break `-j1 == -jN` and memoization; its decision counts
// are EngineStats fields, which the harness adds to telemetry when the
// run finishes. Controller-relevant
// configuration (MethodThreshold, Adaptive) enters harness.Spec, so
// memoized results can never alias across controller settings.

// Controller tuning constants.
const (
	// ctlAbortBackoffMax caps the abort-driven threshold doubling:
	// after this many failed recordings the header pays 8x the static
	// threshold per attempt until MaxAborts blacklists it.
	ctlAbortBackoffMax = 3
	// ctlWarmupEnters is the tier-1 enter count at which a deopt-free
	// loop is considered warm with a stable slope and promoted early.
	ctlWarmupEnters = 4
	// methodGuardHostile is the per-header trace-guard-failure count
	// past which the header's region counts as trace-hostile (above
	// one bridge's worth of failures at the default BridgeThreshold).
	methodGuardHostile = 24
)

// TierEvent is the driver instruction returned from a loop-header
// crossing: which tier (if any) the header just became eligible for.
type TierEvent uint8

// Tier events.
const (
	// TierNone: keep interpreting (or stay resident in lower-tier code).
	TierNone TierEvent = iota
	// TierBaseline: the header crossed BaselineThreshold; the driver
	// should lower the loop body and install baseline code.
	TierBaseline
	// TierTrace: the header crossed Threshold; the driver should begin
	// tracing (promotion, when baseline code exists).
	TierTrace
	// TierMethod: the enclosing function crossed MethodThreshold and
	// its region is trace-hostile; the driver should lower the whole
	// function and install method code.
	TierMethod
)

// headerCountBlock is the counter check on every loop-header crossing.
var headerCountBlock = isa.NewBlock(isa.CC(isa.ALU, 2), isa.CC(isa.Load, 1))

// CountAtHeader bumps the loop-header counter for key and reports which
// tier the header just became eligible for. The counter check costs a
// couple of instructions per crossing, as in RPython. With
// BaselineThreshold == 0 (the default) this is exactly the single-tier
// CountAndMaybeTrace behavior.
func (e *Engine) CountAtHeader(key GreenKey) TierEvent {
	e.S.Block(headerCountBlock)
	if e.tracing != nil {
		return TierNone
	}
	if e.blacklist[key] >= e.MaxAborts {
		// Tracing has given up on this header; the method tier (whose
		// whole point is trace-hostile regions) may still take it.
		return e.maybeMethod(key)
	}
	e.counters[key]++
	if e.counters[key] >= e.traceThresholdFor(key) && e.traces[key] == nil {
		e.counters[key] = 0
		e.recordDecision(key, TierTrace)
		return TierTrace
	}
	if ev := e.maybeMethod(key); ev != TierNone {
		return ev
	}
	if e.BaselineThreshold > 0 && e.counters[key] >= e.BaselineThreshold &&
		e.liveTier(BaselineTier, key) == nil && !e.tierFailed(BaselineTier, key) &&
		e.traces[key] == nil && e.liveTier(MethodTier, key) == nil {
		return TierBaseline
	}
	return TierNone
}

// CountAndMaybeTrace bumps the loop-header counter for key and reports
// whether the driver should begin tracing it now (single-tier wrapper
// around CountAtHeader).
func (e *Engine) CountAndMaybeTrace(key GreenKey) bool {
	return e.CountAtHeader(key) == TierTrace
}

// maybeMethod accumulates function hotness for key's function and
// reports whether the driver should method-compile it now. Hotness is
// per function (all its loop headers pool into one counter), and the
// decision additionally requires the region to be trace-hostile —
// trace-friendly functions stay on the tracing pipeline.
func (e *Engine) maybeMethod(key GreenKey) TierEvent {
	if e.MethodThreshold <= 0 {
		return TierNone
	}
	if e.liveTier(MethodTier, key) != nil || e.tierFailed(MethodTier, key) {
		return TierNone
	}
	e.methodCounters[key.CodeID]++
	if e.methodCounters[key.CodeID] >= e.MethodThreshold && e.hostile(key) {
		e.recordDecision(key, TierMethod)
		return TierMethod
	}
	return TierNone
}

// ControllerDecision is one recorded promotion decision: which header,
// which tier, and the effective tracing threshold in force when it
// fired. TestControllerDeterministic compares whole logs across -j1,
// -jN, and record/replay runs.
type ControllerDecision struct {
	Key       GreenKey
	Event     TierEvent
	Threshold int
}

// ControllerLog returns the promotion decisions made so far, in order.
// Empty unless the method tier or the adaptive controller is enabled
// (static single- and two-tier engines pay nothing for it).
func (e *Engine) ControllerLog() []ControllerDecision { return e.ctlLog }

// traceThresholdFor returns the tracing threshold in effect for a loop
// header. With Adaptive off it is the static Threshold (and costs
// nothing extra). With Adaptive on:
//
//   - Abort backoff: every failed recording at the header doubles the
//     price of the next attempt (threshold << aborts, capped), so
//     abort-prone loops stop burning tracing time long before the
//     MaxAborts blacklist and the work runs in cheaper tiers instead.
//   - Warmup-slope early promotion: a header whose tier-1 code has run
//     ctlWarmupEnters times without a single deopt has a proven stable
//     type profile — the recording will almost certainly succeed, so
//     the threshold drops by a quarter to shorten warmup.
func (e *Engine) traceThresholdFor(key GreenKey) int {
	if !e.Adaptive {
		return e.Threshold
	}
	th := e.Threshold
	if a := e.blacklist[key]; a > 0 {
		if a > ctlAbortBackoffMax {
			a = ctlAbortBackoffMax
		}
		return th << uint(a)
	}
	if bc := e.liveTier(BaselineTier, key); bc != nil &&
		bc.DeoptCount == 0 && bc.EnterCount >= ctlWarmupEnters {
		return th - th/4
	}
	return th
}

// hostile reports whether a header's observed behavior marks its
// region trace-hostile — the method tier's admission rule. Hostility
// is: recording aborts at the header, a failed tier-1 lowering
// (irreducible control flow defeats both the baseline lowering and the
// tracer's loop assumption), or guard-failure traffic past
// methodGuardHostile (megamorphic dispatch keeps failing trace
// guards). A strategy mix whose tracing threshold sits above the
// method threshold prefers methods outright, so plain hotness
// qualifies there — that is what makes a method-only configuration
// (Threshold effectively infinite) compile every hot function.
func (e *Engine) hostile(key GreenKey) bool {
	if e.blacklist[key] > 0 || e.tierFailed(BaselineTier, key) {
		return true
	}
	// Guard failures are attributed to the loop header whose traces they
	// fired in (a bridge carries its loop's key). Counted when asked: this
	// runs on a few header crossings per function, a guard fails far more
	// often.
	fails := 0
	for _, t := range e.all {
		if t.Key != key {
			continue
		}
		for i := range t.Ops {
			fails += int(t.Ops[i].Fails)
		}
	}
	if fails >= methodGuardHostile {
		return true
	}
	return e.Threshold > e.MethodThreshold
}

// recordDecision appends to the controller log and bumps the decision
// stats. A no-op on static engines (no method tier, no adaptive
// controller), keeping them allocation- and bookkeeping-identical to
// the pre-controller engine.
func (e *Engine) recordDecision(key GreenKey, ev TierEvent) {
	if !e.Adaptive && e.MethodThreshold <= 0 {
		return
	}
	th := e.traceThresholdFor(key)
	e.ctlLog = append(e.ctlLog, ControllerDecision{Key: key, Event: ev, Threshold: th})
	switch {
	case ev == TierMethod:
		e.stats.CtlMethodDecisions++
	case th > e.Threshold:
		e.stats.CtlBackoffDecisions++
	case th < e.Threshold:
		e.stats.CtlEarlyPromotions++
	}
}
