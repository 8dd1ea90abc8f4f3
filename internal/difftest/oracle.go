package difftest

import (
	"fmt"

	"metajit/internal/cpu"
	"metajit/internal/heap"
	"metajit/internal/mtjit"
	"metajit/internal/pintool"
	"metajit/internal/profile"
	"metajit/internal/pylang"
	"metajit/internal/sklang"
)

// VMConfig is one cell of the differential matrix: a complete VM
// configuration a guest program is executed under.
type VMConfig struct {
	Name            string
	JIT             bool
	Threshold       int
	BridgeThreshold int
	TraceLimit      int
	// Baseline enables the tier-1 baseline compiler;
	// BaselineThreshold overrides its compile threshold (0 = the
	// guest's default). Tier thresholds always come from the config
	// cell, never from test-local constants, so every cell is
	// self-describing.
	Baseline          bool
	BaselineThreshold int
	// Method enables the tier-2 method compiler; MethodThreshold
	// overrides its promotion threshold (0 = the guest's default).
	Method          bool
	MethodThreshold int
	// Adaptive enables the deterministic feedback tier controller
	// (per-site promotion thresholds; see mtjit/controller.go).
	Adaptive bool
	Opts     *mtjit.OptConfig
	// ForceGuardFail, when set, is installed as the engine's
	// deoptimization-testing hook (see mtjit.Engine.ForceGuardFail).
	ForceGuardFail func(*mtjit.Trace, *mtjit.Op) bool
	// ForceTierGuardFail is the lower-tier analog (see
	// mtjit.Engine.ForceTierGuardFail): it sees baseline and method
	// guards alike and tells them apart by the code's Tier.
	ForceTierGuardFail func(*mtjit.TierCode, uint64) bool
}

// hot is the aggressive threshold pair: nearly every loop gets traced
// and nearly every failing guard gets a bridge, so short programs still
// reach compiled code, bridges, and deopts.
func hot(name string, opts *mtjit.OptConfig) VMConfig {
	return VMConfig{Name: name, JIT: true, Threshold: 2, BridgeThreshold: 1, Opts: opts}
}

func ablate(name string, strike func(*mtjit.OptConfig)) VMConfig {
	opts := mtjit.AllOpts()
	strike(&opts)
	return hot(name, &opts)
}

// Matrix returns the configurations every program is cross-checked
// under: the plain interpreter (the executable specification), the
// default JIT, the JIT with aggressive thresholds, each optimizer pass
// ablated individually, a tiny trace limit (constant abort + blacklist
// pressure), the tier-1 cells — baseline code with tracing out of
// reach, the two-tier scheme with tiny thresholds, and a tiered cell
// whose gap between the baseline and hot thresholds forces promotion
// while the loop is resident in baseline code — and the tier-2 method
// cells: method code with tracing out of reach, the full amalgamated
// scheme (all three tiers, hot and spaced-promotion variants), and the
// amalgamated scheme under the adaptive tier controller.
func Matrix() []VMConfig {
	return []VMConfig{
		{Name: "interp"},
		{Name: "jit-default", JIT: true},
		hot("jit-hot", nil),
		ablate("jit-hot-no-fold", func(o *mtjit.OptConfig) { o.Fold = false }),
		ablate("jit-hot-no-guards", func(o *mtjit.OptConfig) { o.Guards = false }),
		ablate("jit-hot-no-cse", func(o *mtjit.OptConfig) { o.CSE = false }),
		ablate("jit-hot-no-virtuals", func(o *mtjit.OptConfig) { o.Virtuals = false }),
		ablate("jit-hot-no-dce", func(o *mtjit.OptConfig) { o.DCE = false }),
		func() VMConfig { c := hot("jit-tinytrace", nil); c.TraceLimit = 24; return c }(),
		{Name: "tier1-only", JIT: true, Baseline: true,
			BaselineThreshold: 2, Threshold: 1 << 20},
		{Name: "tiered-hot", JIT: true, Baseline: true,
			BaselineThreshold: 1, Threshold: 2, BridgeThreshold: 1},
		{Name: "tiered-promote", JIT: true, Baseline: true,
			BaselineThreshold: 2, Threshold: 9, BridgeThreshold: 2},
		{Name: "method-only", JIT: true, Method: true,
			MethodThreshold: 2, Threshold: 1 << 20},
		{Name: "amalg-hot", JIT: true, Baseline: true, Method: true,
			BaselineThreshold: 1, Threshold: 2, BridgeThreshold: 1,
			MethodThreshold: 3},
		{Name: "amalg-promote", JIT: true, Baseline: true, Method: true,
			BaselineThreshold: 2, Threshold: 9, BridgeThreshold: 2,
			MethodThreshold: 5},
		{Name: "adaptive-hot", JIT: true, Baseline: true, Method: true, Adaptive: true,
			BaselineThreshold: 1, Threshold: 2, BridgeThreshold: 1,
			MethodThreshold: 3},
	}
}

// Outcome is everything observable about one execution that must agree
// across configurations (Result, Heap, Output, Err, and — for clean
// runs — Work), plus engine stats for reporting.
type Outcome struct {
	Config VMConfig
	Result string
	Heap   uint64
	Output string
	Err    string // guest error message, "" for a clean run
	// Work is the total guest bytecodes the work meter counted. Work
	// accounting is exact across tiers (trace passes retire only the
	// bytecodes they actually executed), so every cell of a clean run
	// must report the same total as the interpreter.
	Work  uint64
	Stats mtjit.EngineStats
}

func (o *Outcome) String() string {
	return fmt.Sprintf("result=%s heap=%#x output=%q err=%q", o.Result, o.Heap, o.Output, o.Err)
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

// RunSource executes one guest program (pylang source, or sklang when
// scheme is set) under one configuration and checks every cross-layer
// invariant on the resulting machine and engine. A guest-level error is
// part of the Outcome (configurations must agree on it); a compile
// error or an invariant violation is returned as a Go error.
func RunSource(src string, scheme bool, cfg VMConfig) (*Outcome, error) {
	mach := cpu.New(cpu.DefaultParams())
	pintool.NewPhaseTracker(mach)
	// The streaming profiler rides along as the 13th invariant: its span
	// checker validates the annotation stream's grammar and its phase
	// totals are cross-checked against the machine after the run.
	prof := profile.Attach(mach, profile.Config{})
	// The work meter rides along too: exact tier-independent work
	// accounting means every clean cell must count the same bytecode
	// total (checked in RunConfigs).
	wm := pintool.NewWorkMeter(mach, 0)

	vm := pylang.New(mach, pylang.Config{
		Profile:           mtjit.FrameworkProfile(),
		JIT:               cfg.JIT,
		Threshold:         cfg.Threshold,
		BridgeThreshold:   cfg.BridgeThreshold,
		Baseline:          cfg.Baseline,
		BaselineThreshold: cfg.BaselineThreshold,
		Method:            cfg.Method,
		MethodThreshold:   cfg.MethodThreshold,
		Adaptive:          cfg.Adaptive,
		Opts:              cfg.Opts,
		HeapConfig:        oracleHeapConfig(),
	})
	if cfg.TraceLimit > 0 && vm.Eng != nil {
		vm.Eng.TraceLimit = cfg.TraceLimit
	}
	if cfg.ForceGuardFail != nil && vm.Eng != nil {
		vm.Eng.ForceGuardFail = cfg.ForceGuardFail
	}
	if cfg.ForceTierGuardFail != nil && vm.Eng != nil {
		vm.Eng.ForceTierGuardFail = cfg.ForceTierGuardFail
	}

	if scheme {
		vm.UnicodeStrings = false
		if err := sklang.Load(vm, src); err != nil {
			return nil, fmt.Errorf("%s: load: %w", cfg.Name, err)
		}
	} else {
		if err := vm.LoadModule("difftest", src); err != nil {
			return nil, fmt.Errorf("%s: load: %w", cfg.Name, err)
		}
	}

	out := &Outcome{Config: cfg}
	var vmPanic error
	func() {
		defer func() {
			switch r := recover().(type) {
			case nil:
			case *pylang.GuestError:
				out.Err = r.Msg
			default:
				vmPanic = fmt.Errorf("%s: VM panic: %v", cfg.Name, r)
			}
		}()
		out.Result = renderValue(vm, vm.RunFunction("main"))
	}()
	if vmPanic != nil {
		return nil, vmPanic
	}

	out.Heap = vm.HeapChecksum()
	out.Output = vm.Output.String()
	out.Work = wm.Bytecodes

	if err := CheckPhases(mach); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Name, err)
	}
	prof.Finish()
	if out.Err == "" {
		// A guest error unwinds the VM without closing annotation spans,
		// so the stream-balance invariant only holds for clean runs.
		if err := CheckProfile(mach, prof); err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.Name, err)
		}
	}
	if vm.Eng != nil {
		out.Stats = vm.Eng.Stats()
		if err := vm.Eng.Validate(); err != nil {
			return nil, fmt.Errorf("%s: engine: %w", cfg.Name, err)
		}
	}
	return out, nil
}

// RunMatrix executes src under every configuration and demands that all
// cells agree with the first (the plain interpreter) on result, heap
// checksum, output, and guest error. It returns all outcomes so callers
// can additionally assert that the JIT actually engaged.
func RunMatrix(src string, scheme bool) ([]*Outcome, error) {
	return RunConfigs(src, scheme, Matrix())
}

// RunConfigs is RunMatrix over an explicit configuration list; the first
// entry is the reference the others must agree with.
func RunConfigs(src string, scheme bool, configs []VMConfig) ([]*Outcome, error) {
	outs := make([]*Outcome, 0, len(configs))
	for _, cfg := range configs {
		o, err := RunSource(src, scheme, cfg)
		if err != nil {
			return outs, err
		}
		outs = append(outs, o)
	}
	ref := outs[0]
	for _, o := range outs[1:] {
		if o.Result != ref.Result || o.Heap != ref.Heap ||
			o.Output != ref.Output || o.Err != ref.Err {
			return outs, fmt.Errorf("divergence between %s and %s:\n  %s: %s\n  %s: %s",
				ref.Config.Name, o.Config.Name, ref.Config.Name, ref, o.Config.Name, o)
		}
		// Work totals are only comparable for clean runs: a guest error
		// unwinds mid-segment, so the erroring pass's partial work never
		// gets annotated.
		if ref.Err == "" && o.Work != ref.Work {
			return outs, fmt.Errorf("work divergence between %s and %s: %d vs %d bytecodes",
				ref.Config.Name, o.Config.Name, ref.Work, o.Work)
		}
	}
	return outs, nil
}

// renderValue makes main's return value comparable across VM instances:
// immediates print exactly, references print as structural checksums
// (pointer identity is meaningless across VMs).
func renderValue(vm *pylang.VM, v heap.Value) string {
	switch v.Kind {
	case heap.KindNil:
		return "None"
	case heap.KindBool:
		return fmt.Sprintf("bool:%d", v.I)
	case heap.KindInt:
		return fmt.Sprintf("int:%d", v.I)
	case heap.KindFloat:
		return fmt.Sprintf("float:%x", v.F())
	case heap.KindRef:
		return fmt.Sprintf("ref:%#x", vm.ValueChecksum(v))
	}
	return fmt.Sprintf("kind:%d", v.Kind)
}
