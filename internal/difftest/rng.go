// Package difftest is the differential-testing subsystem for the
// meta-tracing JIT: seeded random guest-program generators for the
// Python-like and Scheme-like guests, an oracle that runs each program
// through harness.Run — the stack that makes the paper's tables — under
// a matrix of cells (interpreter-only, default JIT, per-pass optimizer
// ablations, aggressive thresholds, tiny trace limits, the tier-1
// baseline compiler, the tier-2 method compiler, and the adaptive tier
// controller) and demands identical Checksums of main's value, heap
// checksums, output, guest errors, and — for clean runs — total
// bytecode work across all cells, and cross-layer invariant checkers
// (phase accounting, trace IR well-formedness, engine stats) applied to
// every execution. It follows the cross-checking methodology used to
// validate composed interpreters: the plain interpreter is the
// executable specification, and every JIT configuration must agree with
// it bit for bit.
//
// # Cell naming
//
// A cell is a harness VM kind and the Options it runs under. Its name
// encodes which tiers run and what distinguishes the cell, so a failure
// report identifies the configuration without consulting the code:
//
//   - "interp" — pypy-nojit, no JIT at all; the reference cell every
//     other cell must agree with.
//   - "jit-<variant>" — pypy, the single-tier tracing JIT. "jit-default"
//     uses production thresholds; "jit-hot" uses aggressive thresholds
//     (trace at 2, bridge at 1); "jit-hot-no-<pass>" is jit-hot with
//     one optimizer pass ablated; "jit-tinytrace" caps trace length to
//     force aborts and blacklisting.
//   - "tier1-<variant>" — pypy-tiered with the tracing threshold out of
//     reach: the baseline (tier-1) compiler only; all hot code runs as
//     unoptimized threaded code.
//   - "tiered-<variant>" — pypy-tiered: both tier 1 and the tracing JIT.
//     "tiered-hot" promotes almost immediately; "tiered-promote" spaces
//     the baseline and hot thresholds so loops are resident in baseline
//     code when promotion and its invalidation hit.
//   - "method-<variant>" — pypy-amalg with the tracing and baseline
//     thresholds out of reach, so only the tier-2 method compiler
//     compiles; hot functions run as whole-function method code.
//   - "amalg-<variant>" — pypy-amalg, the full amalgamated scheme:
//     baseline, tracing, and method tiers together. "amalg-hot" promotes
//     almost immediately on every tier; "amalg-promote" spaces the
//     thresholds so method promotion hits while loops are resident in
//     baseline code or compiled traces.
//   - "adaptive-<variant>" — pypy-adaptive: the amalgamated scheme under
//     the adaptive tier controller (per-site promotion thresholds driven
//     by observed abort/deopt/guard-failure streams;
//     mtjit/controller.go).
//
// Tier thresholds are carried by the cell's Options (never by
// test-local constants), so the corpus and fuzz harnesses exercise
// exactly the advertised configurations; TestMatrixShape holds each
// name to the tiers its cell's engine has.
package difftest

// decider turns a fuzzer byte stream into bounded structured decisions.
// While input bytes remain they drive every choice, so a fuzzing
// engine's byte mutations steer program shape; once the input is
// exhausted a splitmix64 PRNG seeded from the consumed prefix takes
// over, keeping generation total and deterministic for any input.
type decider struct {
	data []byte
	pos  int
	seed uint64
}

func newDecider(data []byte) *decider {
	seed := uint64(0x9E3779B97F4A7C15)
	for _, b := range data {
		seed = (seed ^ uint64(b)) * 0x100000001B3
	}
	return &decider{data: data, seed: seed}
}

func (d *decider) next() uint64 {
	if d.pos < len(d.data) {
		b := d.data[d.pos]
		d.pos++
		return uint64(b)
	}
	d.seed += 0x9E3779B97F4A7C15
	z := d.seed
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return (z ^ (z >> 31)) & 0xFF
}

// intn returns a decision in [0, n).
func (d *decider) intn(n int) int {
	if n <= 1 {
		return 0
	}
	if n <= 256 {
		return int(d.next()) % n
	}
	return int(d.next()<<8|d.next()) % n
}

// rangeInt returns a decision in [lo, hi].
func (d *decider) rangeInt(lo, hi int) int { return lo + d.intn(hi-lo+1) }

// chance is true pct% of the time.
func (d *decider) chance(pct int) bool { return d.intn(100) < pct }

// pick returns one of the options.
func (d *decider) pick(opts ...string) string { return opts[d.intn(len(opts))] }
