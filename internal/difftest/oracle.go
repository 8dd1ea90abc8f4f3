package difftest

import (
	"errors"
	"fmt"

	"metajit/internal/bench"
	"metajit/internal/harness"
	"metajit/internal/heap"
	"metajit/internal/mtjit"
	"metajit/internal/pylang"
)

// Cell is one configuration of the differential matrix: a harness VM
// kind and the Options it runs under, so the oracle checks the same
// stack that makes the paper's tables. Tier thresholds always come from
// the cell, never from test-local constants, so every cell is
// self-describing.
type Cell struct {
	Name string
	VM   harness.VMKind
	Opt  harness.Options
}

// hot is the aggressive threshold pair: nearly every loop gets traced
// and nearly every failing guard gets a bridge, so short programs still
// reach compiled code, bridges, and deopts.
func hot(name string, opts *mtjit.OptConfig) Cell {
	return Cell{Name: name, VM: harness.VMPyPyJIT,
		Opt: harness.Options{Threshold: 2, BridgeThreshold: 1, Opts: opts}}
}

func ablate(name string, strike func(*mtjit.OptConfig)) Cell {
	opts := mtjit.AllOpts()
	strike(&opts)
	return hot(name, &opts)
}

// interp is the reference cell: the plain interpreter, the executable
// specification every other cell must agree with.
var interp = Cell{Name: "interp", VM: harness.VMPyPyNoJIT}

// unreachable is a threshold no oracle program crosses: a tier held at
// it is configured but never compiles.
const unreachable = 1 << 20

// Matrix returns the cells every program is cross-checked under: the
// plain interpreter (the executable specification), the default JIT,
// the JIT with aggressive thresholds, each optimizer pass ablated
// individually, a tiny trace limit (constant abort + blacklist
// pressure), the tier-1 cells — baseline code with tracing out of
// reach, the two-tier scheme with tiny thresholds, and a tiered cell
// whose gap between the baseline and hot thresholds forces promotion
// while the loop is resident in baseline code — and the tier-2 method
// cells: method code with tracing and baseline code out of reach, the
// full amalgamated scheme (all three tiers, hot and spaced-promotion
// variants), and the amalgamated scheme under the adaptive tier
// controller.
func Matrix() []Cell {
	tiny := hot("jit-tinytrace", nil)
	tiny.Opt.Guest = func(vm *pylang.VM) { vm.Eng.TraceLimit = 24 }
	return []Cell{
		interp,
		{Name: "jit-default", VM: harness.VMPyPyJIT},
		hot("jit-hot", nil),
		ablate("jit-hot-no-fold", func(o *mtjit.OptConfig) { o.Fold = false }),
		ablate("jit-hot-no-guards", func(o *mtjit.OptConfig) { o.Guards = false }),
		ablate("jit-hot-no-cse", func(o *mtjit.OptConfig) { o.CSE = false }),
		ablate("jit-hot-no-virtuals", func(o *mtjit.OptConfig) { o.Virtuals = false }),
		ablate("jit-hot-no-dce", func(o *mtjit.OptConfig) { o.DCE = false }),
		tiny,
		{Name: "tier1-only", VM: harness.VMPyPyTiered, Opt: harness.Options{
			BaselineThreshold: 2, Threshold: unreachable}},
		{Name: "tiered-hot", VM: harness.VMPyPyTiered, Opt: harness.Options{
			BaselineThreshold: 1, Threshold: 2, BridgeThreshold: 1}},
		{Name: "tiered-promote", VM: harness.VMPyPyTiered, Opt: harness.Options{
			BaselineThreshold: 2, Threshold: 9, BridgeThreshold: 2}},
		{Name: "method-only", VM: harness.VMPyPyAmalg, Opt: harness.Options{
			BaselineThreshold: unreachable, Threshold: unreachable, MethodThreshold: 2}},
		{Name: "amalg-hot", VM: harness.VMPyPyAmalg, Opt: harness.Options{
			BaselineThreshold: 1, Threshold: 2, BridgeThreshold: 1, MethodThreshold: 3}},
		{Name: "amalg-promote", VM: harness.VMPyPyAmalg, Opt: harness.Options{
			BaselineThreshold: 2, Threshold: 9, BridgeThreshold: 2, MethodThreshold: 5}},
		{Name: "adaptive-hot", VM: harness.VMPyPyAdaptive, Opt: harness.Options{
			BaselineThreshold: 1, Threshold: 2, BridgeThreshold: 1, MethodThreshold: 3}},
	}
}

// Outcome is everything observable about one execution that must agree
// across cells (Checksum, Heap, Output, Err, and — for clean runs —
// Work), plus engine stats for reporting.
type Outcome struct {
	Cell Cell
	// Checksum is main's value as harness.Result.Checksum gives it (0
	// after a guest error).
	Checksum int64
	Heap     uint64
	Output   string
	Err      string // guest error message, "" for a clean run
	// Work is the total guest bytecodes the work meter counted. Work
	// accounting is exact across tiers (trace passes retire only the
	// bytecodes they actually executed), so every cell of a clean run
	// must report the same total as the interpreter.
	Work  uint64
	Stats mtjit.EngineStats
}

func (o *Outcome) String() string {
	return fmt.Sprintf("checksum=%#x heap=%#x output=%q err=%q", o.Checksum, o.Heap, o.Output, o.Err)
}

// oracleHeapConfig is deliberately small so even fuzzer-sized programs
// trigger minor (and often major) collections, keeping the GC in the
// differential loop.
func oracleHeapConfig() *heap.Config {
	return &heap.Config{
		NurserySize:    16 << 10,
		MajorThreshold: 96 << 10,
		MajorGrowth:    1.82,
	}
}

// RunCell runs one guest program — pylang source, or sklang when scheme
// is set — through harness.Run on one cell, with the oracle's small heap
// and the streaming profiler on, and checks every cross-layer invariant
// on the resulting machine and engine. A guest-level error is part of
// the Outcome (cells must agree on it); a compile error, a simulator
// panic or an invariant violation is returned as a Go error.
func RunCell(src string, scheme bool, c Cell) (out *Outcome, err error) {
	p := &bench.Program{Name: "difftest", Source: src}
	if scheme {
		p = &bench.Program{Name: "difftest", SkSource: src}
	}
	opt := c.Opt
	opt.HeapConfig = oracleHeapConfig()
	// The streaming profiler rides along as the 13th invariant: its span
	// checker validates the annotation stream's grammar and its phase
	// totals are cross-checked against the machine after the run.
	opt.Profile = true
	var vm *pylang.VM
	opt.Guest = func(v *pylang.VM) {
		vm = v
		if c.Opt.Guest != nil {
			c.Opt.Guest(v)
		}
	}
	defer func() {
		if v := recover(); v != nil {
			out, err = nil, fmt.Errorf("%s: VM panic: %v", c.Name, v)
		}
	}()
	res, err := harness.Run(p, c.VM, opt)
	out = &Outcome{Cell: c}
	var g *pylang.GuestError
	switch {
	case errors.As(err, &g):
		out.Err = g.Msg
	case err != nil:
		return nil, fmt.Errorf("%s: %w", c.Name, err)
	default:
		// The work meter's total is exact across tiers, so every clean
		// cell must count the same bytecodes (checked in RunCells). A
		// guest error unwinds mid-segment, so its count is partial.
		out.Checksum, out.Work = res.Checksum, res.Bytecodes
	}
	out.Heap = vm.HeapChecksum()
	out.Output = vm.Output.String()

	if err := CheckPhases(vm.Mach); err != nil {
		return nil, fmt.Errorf("%s: %w", c.Name, err)
	}
	if res != nil {
		// A guest error unwinds the VM without closing annotation spans,
		// so the stream-balance invariant only holds for clean runs.
		if err := CheckProfile(vm.Mach, res.Profile); err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
	}
	if vm.Eng != nil {
		out.Stats = vm.Eng.Stats()
		if err := vm.Eng.Validate(); err != nil {
			return nil, fmt.Errorf("%s: engine: %w", c.Name, err)
		}
	}
	return out, nil
}

// RunMatrix executes src under every configuration and demands that all
// cells agree with the first (the plain interpreter) on result, heap
// checksum, output, and guest error. It returns all outcomes so callers
// can additionally assert that the JIT actually engaged.
func RunMatrix(src string, scheme bool) ([]*Outcome, error) {
	return RunCells(src, scheme, Matrix())
}

// RunCells is RunMatrix over an explicit cell list; the first entry is
// the reference the others must agree with.
func RunCells(src string, scheme bool, cells []Cell) ([]*Outcome, error) {
	outs := make([]*Outcome, 0, len(cells))
	for _, c := range cells {
		o, err := RunCell(src, scheme, c)
		if err != nil {
			return outs, err
		}
		outs = append(outs, o)
	}
	ref := outs[0]
	for _, o := range outs[1:] {
		if o.Checksum != ref.Checksum || o.Heap != ref.Heap ||
			o.Output != ref.Output || o.Err != ref.Err {
			return outs, fmt.Errorf("divergence between %s and %s:\n  %s: %s\n  %s: %s",
				ref.Cell.Name, o.Cell.Name, ref.Cell.Name, ref, o.Cell.Name, o)
		}
		if ref.Err == "" && o.Work != ref.Work {
			return outs, fmt.Errorf("work divergence between %s and %s: %d vs %d bytecodes",
				ref.Cell.Name, o.Cell.Name, ref.Work, o.Work)
		}
	}
	return outs, nil
}
