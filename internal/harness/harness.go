// Package harness runs benchmarks across VM configurations and
// regenerates every table and figure of the paper's evaluation. Simulated
// time is reported as cycles of the modeled core (the paper's seconds
// column maps to simulated cycles; shapes, not absolute values, are the
// reproduction target).
package harness

import (
	"fmt"
	"io"
	"math"
	"path/filepath"

	"metajit/internal/bench"
	"metajit/internal/core"
	"metajit/internal/cpu"
	"metajit/internal/heap"
	"metajit/internal/jitlog"
	"metajit/internal/mtjit"
	"metajit/internal/pintool"
	"metajit/internal/profile"
	"metajit/internal/pylang"
	"metajit/internal/reqtrace"
	"metajit/internal/sklang"
	"metajit/internal/static"
	"metajit/internal/trace"
)

// VMKind selects one of the paper's VM configurations.
type VMKind string

// The VM configurations of Tables I and II.
const (
	VMCPython   VMKind = "cpython"    // reference interpreter (CPython analog)
	VMPyPyNoJIT VMKind = "pypy-nojit" // framework interpreter, JIT off
	VMPyPyJIT   VMKind = "pypy"       // framework interpreter + meta-tracing JIT
	VMRacket    VMKind = "racket"     // custom-VM baseline for the Scheme guest
	VMPycket    VMKind = "pycket"     // Scheme guest on the meta-tracing framework
	VMC         VMKind = "c"          // statically compiled reference

	// VMPyPyTiered is the two-tier configuration: the framework
	// interpreter with the tier-1 baseline compiler in front of the
	// meta-tracing JIT (warmup study).
	VMPyPyTiered VMKind = "pypy-tiered"

	// VMPyPyAmalg is the amalgamated configuration: pypy-tiered plus the
	// tier-2 method compiler, with static promotion thresholds. Trace-
	// hostile regions fall back to whole-function method code; trace-
	// friendly hot loops keep tracing.
	VMPyPyAmalg VMKind = "pypy-amalg"
	// VMPyPyAdaptive is pypy-amalg with the adaptive tier controller:
	// per-site promotion thresholds driven by observed abort, deopt, and
	// guard-failure streams (deterministic; see mtjit/controller.go).
	VMPyPyAdaptive VMKind = "pypy-adaptive"
)

// vmKinds is the one VM-name table; TestParseVMKindCoversEveryKind
// fails when a VMKind constant is missing from it.
var vmKinds = []VMKind{
	VMCPython, VMPyPyNoJIT, VMPyPyJIT, VMRacket, VMPycket, VMC,
	VMPyPyTiered, VMPyPyAmalg, VMPyPyAdaptive,
}

// ParseVMKind resolves a VM name arriving from outside the process (a
// /run request body) to its kind.
func ParseVMKind(name string) (VMKind, error) {
	for _, k := range vmKinds {
		if string(k) == name {
			return k, nil
		}
	}
	return "", fmt.Errorf("unknown vm %q", name)
}

// Options tunes a run.
type Options struct {
	// HeapConfig overrides the benchmark heap geometry. The default
	// scales the paper's testbed down to simulator workload sizes: a
	// nursery small relative to benchmark working sets, so that GC
	// pressure (binarytrees!) shows the same shape.
	HeapConfig *heap.Config
	// SampleInterval enables WorkMeter sampling every N instructions.
	SampleInterval uint64
	// Threshold / BridgeThreshold override JIT defaults when non-zero.
	Threshold       int
	BridgeThreshold int
	// BaselineThreshold overrides the tier-1 compile threshold for
	// tiered VM kinds when non-zero.
	BaselineThreshold int
	// MethodThreshold overrides the tier-2 method-compile threshold for
	// amalgamated VM kinds when non-zero.
	MethodThreshold int
	// Adaptive forces the adaptive tier controller on for any JIT kind
	// (pypy-adaptive implies it).
	Adaptive bool
	// Opts overrides the optimizer configuration.
	Opts *mtjit.OptConfig
	// Params overrides the CPU model.
	Params *cpu.Params
	// MaxInstrs is read by nothing: every run executes and samples to
	// completion. It only splits the memo by entering CellKey, and leaves
	// with the one planned CellID move (ROADMAP item 2).
	MaxInstrs uint64
	// Profile attaches the streaming cross-layer profiler
	// (internal/profile) to the run; Result.Profile holds the finished
	// profiler. When false and ProfileDir is empty, no profiler is
	// attached and the run is bit-identical to an unprofiled one.
	Profile bool
	// ProfileDir, when non-empty, implies Profile and writes the profile
	// artifacts (<bench>-<vm>.trace.json / .folded / .series.txt) there,
	// creating the directory if needed.
	ProfileDir string
	// ProfileWindow overrides the interval time-series window in retired
	// instructions (0: DefaultProfileWindow).
	ProfileWindow uint64
	// Live, when non-nil, registers the run with a LiveTracker so its
	// progress can be observed mid-flight (the mtjitd introspection
	// endpoints). Excluded from the memo CellKey: tracking reads counters
	// without perturbing the simulation, so a tracked run's Result is
	// identical to an untracked one.
	Live *LiveTracker
	// Record attaches the trace recorder (internal/trace): every
	// cross-layer annotation and heap allocation/free event is captured
	// into Result.Trace, with the run's outcome sealed into the trace
	// Summary. Nothing is attached when false and RecordDir is empty,
	// so an unrecorded run is bit-identical to a pre-recorder one.
	Record bool
	// RecordDir, when non-empty, implies Record and writes the trace
	// file (<bench>-<vm>.mtt) there, creating the directory if needed.
	RecordDir string
	// ReplayAlloc replays the benchmark's recorded allocation/free
	// event stream directly against a fresh heap (trace.ReplayAllocs,
	// the dj_trace mode) instead of executing guest code. Requires a
	// trace benchmark (bench.FromTrace / bench.LoadTraceDir).
	ReplayAlloc bool
	// ReqTrace, when non-nil, links this run into a request trace: the
	// profiler is attached (with no artifact output unless Profile /
	// ProfileDir also ask for it) and every closed phase span is
	// forwarded to the request span, in simulated microseconds, so the
	// serving stack's merged Chrome export can decompose the request
	// down to GC/tracing/JIT phases. Excluded from the memo CellKey:
	// like Live, span capture observes counters without perturbing the
	// simulation, so a traced run's Result is byte-identical to an
	// untraced one.
	ReqTrace *reqtrace.Span
	// JITLog, when non-nil and the run has a JIT, receives the JIT log
	// dump (jitlog.Log.Dump) after main returns; a write error is the
	// run's error. The traces end with the run and Result.IR keeps their
	// statistics. Excluded from the memo CellKey: a text sink cannot
	// reach the Result, and a memo hit writes nothing to it.
	JITLog io.Writer
}

// DefaultProfileWindow is the time-series window (in retired
// instructions) used when profiling is on and no override is given.
const DefaultProfileWindow = 1 << 16

// Result is one benchmark execution's measurements. It is a value:
// everything a default run produces is numbers and strings computed when
// the run ends, so a memoized Result holds no machine, trace or guest
// heap (TestResultHoldsNoGraph). Profile and Trace are the two artifacts
// a caller asks for by name; they are nil otherwise.
type Result struct {
	Bench string
	VM    VMKind

	// Params is the CPU model the run actually used (the default or the
	// Options.Params override).
	Params cpu.Params

	Checksum int64
	Instrs   uint64
	Cycles   float64

	Total   cpu.Counters
	Phases  [core.NumPhases]cpu.Counters
	GC      heap.Stats
	Samples []pintool.Sample

	Bytecodes uint64
	// AOT is Table III's input: one row per AOT function that JIT code
	// called, in function-ID order.
	AOT []AOTCost
	// IR is the JIT log reduced to what Figures 6-9 read (zero for a run
	// without a JIT).
	IR       jitlog.Stats
	Events   pintool.TraceEventCounter
	EngStats mtjit.EngineStats

	// Profile is the finished streaming profiler (nil unless
	// Options.Profile/ProfileDir enabled it); ProfileFiles lists artifact
	// paths written under Options.ProfileDir.
	Profile      *profile.Profiler
	ProfileFiles []string

	// HeapChecksum is the structural hash of the final guest-visible
	// heap (pylang.VM.HeapChecksum); 0 for static-kernel and
	// alloc-replay runs, which have no guest heap state.
	HeapChecksum uint64
	// Trace is the finished recording (nil unless Options.Record or
	// RecordDir enabled it); TraceFile is the path written under
	// Options.RecordDir.
	Trace     *trace.Trace
	TraceFile string
}

// AOTCost is the cycles attributed to one AOT-compiled entry point over
// the calls JIT code made to it (pintool.AOTAttributor).
type AOTCost struct {
	Name   string
	Src    string
	Cycles float64
	Calls  uint64
}

// Seconds converts cycles to simulated seconds at the clock of the CPU
// model the run used (Params.ClockHz; 3 GHz when the override left it
// zero).
func (r *Result) Seconds() float64 { return r.Cycles / r.ClockHz() }

// ClockHz returns the run's clock rate.
func (r *Result) ClockHz() float64 {
	if r.Params.ClockHz > 0 {
		return r.Params.ClockHz
	}
	return 3e9
}

// PhaseFraction returns the fraction of instructions in a phase.
func (r *Result) PhaseFraction(p core.Phase) float64 {
	if r.Instrs == 0 {
		return 0
	}
	return float64(r.Phases[p].Instrs) / float64(r.Instrs)
}

// Run executes one benchmark on one VM configuration.
func Run(p *bench.Program, kind VMKind, opt Options) (*Result, error) {
	params := cpu.DefaultParams()
	if opt.Params != nil {
		params = *opt.Params
	}
	mach := cpu.New(params)

	res := &Result{Bench: p.Name, VM: kind}

	// Live tracking begins before any guest work and ends on every exit
	// path (including errors), so a daemon's run listing never shows a
	// run stuck in flight. Static-kernel runs get begin/end snapshots
	// only: no annotation stream, nothing to observe mid-run.
	lr := opt.Live.begin(p.Name, kind, mach)
	defer lr.end()

	if kind == VMC {
		if opt.Record || opt.RecordDir != "" || opt.ReplayAlloc {
			return nil, fmt.Errorf("harness: trace record/replay unsupported for %s", kind)
		}
		k := static.ByName(p.Name)
		if k == nil {
			return nil, fmt.Errorf("harness: no static kernel for %s", p.Name)
		}
		res.Checksum = k.Run(mach)
		res.finish(mach)
		return res, nil
	}

	pintool.NewPhaseTracker(mach)
	lr.attach() // after the tracker: dispatch ticks see the switched phase
	wm := pintool.NewWorkMeter(mach, opt.SampleInterval)
	att := pintool.NewAOTAttributor(mach)
	events := pintool.NewTraceEventCounter(mach)

	if opt.ReplayAlloc {
		return runAllocReplay(p, kind, opt, mach, res)
	}

	cfg := pylang.Config{}
	src, guest := p.Source, trace.GuestPy
	switch kind {
	case VMCPython:
		cfg.Profile = mtjit.ReferenceProfile()
	case VMPyPyNoJIT:
		cfg.Profile = mtjit.FrameworkProfile()
	case VMPyPyJIT:
		cfg.Profile = mtjit.FrameworkProfile()
		cfg.JIT = true
	case VMPyPyTiered:
		cfg.Profile = mtjit.FrameworkProfile()
		cfg.JIT = true
		cfg.Baseline = true
		cfg.BaselineThreshold = opt.BaselineThreshold
	case VMPyPyAmalg, VMPyPyAdaptive:
		cfg.Profile = mtjit.FrameworkProfile()
		cfg.JIT = true
		cfg.Baseline = true
		cfg.BaselineThreshold = opt.BaselineThreshold
		cfg.Method = true
		cfg.MethodThreshold = opt.MethodThreshold
		cfg.Adaptive = kind == VMPyPyAdaptive
	case VMRacket:
		cfg.Profile = mtjit.CustomVMProfile()
		src, guest = p.SkSource, trace.GuestSk
	case VMPycket:
		cfg.Profile = mtjit.FrameworkProfile()
		cfg.JIT = true
		src, guest = p.SkSource, trace.GuestSk
	default:
		return nil, fmt.Errorf("harness: unknown VM %q", kind)
	}
	if src == "" {
		return nil, fmt.Errorf("harness: %s has no source for %s", p.Name, kind)
	}
	cfg.Threshold = opt.Threshold
	cfg.BridgeThreshold = opt.BridgeThreshold
	if opt.Adaptive {
		cfg.Adaptive = true
	}
	cfg.Opts = opt.Opts
	hcfg := heapConfigOf(opt)
	cfg.HeapConfig = &hcfg

	// The profiler attaches after the pintool observers and before any
	// guest code runs (see attachProfiler). Its labels read profVM /
	// profLog, which are assigned as soon as the VM and JIT log exist.
	var (
		profVM  *pylang.VM
		profLog *jitlog.Log
	)
	prof, err := attachProfiler(mach, p, kind, opt, &profVM, &profLog)
	if err != nil {
		return nil, err
	}
	defer prof.close()

	// The recorder attaches after the profiler, so both see the same
	// annotation stream; the heap tracer attaches right after the VM's
	// heap exists, before any guest code (module init included) runs.
	rec := attachRecorder(mach, p, kind, opt, hcfg, guest, src)

	vm := pylang.New(mach, cfg)
	profVM = vm
	if rec != nil {
		vm.H.SetTracer(rec)
	}
	var log *jitlog.Log
	if cfg.JIT {
		log = jitlog.Attach(vm.Eng)
		profLog = log
		lr.setLog(log)
	}
	if guest == trace.GuestSk {
		vm.UnicodeStrings = false
		if err := sklang.Load(vm, src); err != nil {
			return nil, fmt.Errorf("harness: %s on %s: %w", p.Name, kind, err)
		}
	} else {
		if err := vm.LoadModule(p.Name, src); err != nil {
			return nil, fmt.Errorf("harness: %s on %s: %w", p.Name, kind, err)
		}
	}
	out := vm.RunFunction("main")
	res.Checksum = out.I

	if err := prof.finish(res); err != nil {
		return nil, err
	}

	// Reduce the observers to values: the machine, the traces and the
	// guest heap end with this function.
	res.GC = vm.H.Stats()
	res.Bytecodes = wm.Bytecodes
	res.Samples = wm.Samples
	res.Events = *events
	if log != nil {
		res.IR = log.Stats()
		res.EngStats = vm.Eng.Stats()
		if opt.JITLog != nil {
			if _, err := io.WriteString(opt.JITLog, log.Dump()); err != nil {
				return nil, fmt.Errorf("harness: %s on %s: jit log: %w", p.Name, kind, err)
			}
		}
	}
	for _, f := range vm.RT.Funcs() {
		if cyc, ok := att.CyclesByFunc[f.ID]; ok {
			res.AOT = append(res.AOT, AOTCost{Name: f.Name, Src: f.Src.String(), Cycles: cyc, Calls: att.CallsByFunc[f.ID]})
		}
	}
	// The heap checksum is a pure Go walk (no simulated instructions),
	// so computing it here perturbs nothing; it feeds the recorded
	// summary and the record→replay equivalence checks.
	res.HeapChecksum = vm.HeapChecksum()
	if rec != nil {
		if err := finishRecording(rec, res, opt, mach, res.HeapChecksum, res.GC); err != nil {
			return nil, err
		}
	}
	res.finish(mach)
	return res, nil
}

// heapConfigOf resolves the effective heap geometry of a run: the
// explicit override, or the benchmark default that scales the paper's
// testbed down to simulator workload sizes.
func heapConfigOf(opt Options) heap.Config {
	if opt.HeapConfig != nil {
		return *opt.HeapConfig
	}
	return heap.Config{
		NurserySize:    32 << 10,
		MajorThreshold: 384 << 10,
		MajorGrowth:    1.82,
	}
}

// snapshotConfig pins the replay-affecting options into a trace header.
func snapshotConfig(opt Options, hcfg heap.Config) trace.ConfigSnapshot {
	return trace.ConfigSnapshot{
		Threshold:         int64(opt.Threshold),
		BridgeThreshold:   int64(opt.BridgeThreshold),
		BaselineThreshold: int64(opt.BaselineThreshold),
		MethodThreshold:   int64(opt.MethodThreshold),
		Adaptive:          opt.Adaptive,
		NurserySize:       hcfg.NurserySize,
		MajorThreshold:    hcfg.MajorThreshold,
		MajorGrowthBits:   math.Float64bits(hcfg.MajorGrowth),
	}
}

// ReplayOptions reconstructs the Options a trace was recorded under:
// tier thresholds and heap geometry come from the header's config
// snapshot. Recordings made under custom Params/Opts overrides must be
// replayed with the same overrides passed explicitly; the snapshot
// covers the options a recording changes by default.
func ReplayOptions(t *trace.Trace) Options {
	c := t.Header.Config
	hc := heap.Config{
		NurserySize:    c.NurserySize,
		MajorThreshold: c.MajorThreshold,
		MajorGrowth:    c.MajorGrowth(),
	}
	return Options{
		Threshold:         int(c.Threshold),
		BridgeThreshold:   int(c.BridgeThreshold),
		BaselineThreshold: int(c.BaselineThreshold),
		MethodThreshold:   int(c.MethodThreshold),
		Adaptive:          c.Adaptive,
		HeapConfig:        &hc,
	}
}

// attachRecorder attaches the trace recorder when the options ask for a
// recording (nil otherwise); guest and source name what is being run.
func attachRecorder(mach *cpu.Machine, p *bench.Program, kind VMKind, opt Options, hcfg heap.Config, guest, source string) *trace.Recorder {
	if !opt.Record && opt.RecordDir == "" {
		return nil
	}
	rec := trace.NewRecorder(trace.Header{
		Guest:  guest,
		Name:   p.Name,
		VM:     string(kind),
		Source: source,
		Config: snapshotConfig(opt, hcfg),
	})
	mach.Observe(rec)
	return rec
}

// finishRecording seals the recorder with the run's outcome and writes
// the trace file when RecordDir asks for one.
func finishRecording(rec *trace.Recorder, res *Result, opt Options, mach *cpu.Machine, heapCk uint64, gc heap.Stats) error {
	sum := trace.Summary{
		Checksum:     res.Checksum,
		HeapChecksum: heapCk,
		Instrs:       mach.TotalInstrs(),
		CyclesBits:   math.Float64bits(mach.TotalCycles()),
		Phases:       make([]trace.PhaseSum, core.NumPhases),
		GC: trace.GCSum{
			Minor:         gc.Minor,
			Major:         gc.Major,
			AllocObjects:  gc.AllocObjects,
			AllocBytes:    gc.AllocBytes,
			PromotedBytes: gc.PromotedBytes,
			Skipped:       gc.Skipped,
		},
	}
	for ph := core.Phase(0); ph < core.NumPhases; ph++ {
		c := mach.PhaseCounters(ph)
		sum.Phases[ph] = trace.PhaseSum{Instrs: c.Instrs, CyclesBits: math.Float64bits(c.Cycles)}
	}
	tr := rec.Finish(sum)
	res.Trace = tr
	if opt.RecordDir != "" {
		path := filepath.Join(opt.RecordDir, trace.FileName(res.Bench, string(res.VM)))
		if err := trace.WriteFile(path, tr); err != nil {
			return fmt.Errorf("harness: record: %w", err)
		}
		res.TraceFile = path
	}
	return nil
}

// runAllocReplay is the dj_trace execution mode: no guest code runs;
// the trace's allocation/free event stream drives a fresh heap (and
// through it the generational collector) directly. The phase tracker,
// profiler, and recorder all work unchanged — the annotation stream
// simply contains only GC activity.
func runAllocReplay(p *bench.Program, kind VMKind, opt Options, mach *cpu.Machine, res *Result) (*Result, error) {
	if p.Trace == nil {
		return nil, fmt.Errorf("harness: %s: replay-alloc needs a trace benchmark (bench.FromTrace)", p.Name)
	}
	hcfg := heapConfigOf(opt)

	prof, err := attachProfiler(mach, p, kind, opt, nil, nil)
	if err != nil {
		return nil, err
	}
	defer prof.close()

	rec := attachRecorder(mach, p, kind, opt, hcfg, p.Trace.Header.Guest, p.Trace.Header.Source)

	h := heap.New(mach, hcfg)
	if rec != nil {
		h.SetTracer(rec)
	}
	stats, err := trace.ReplayAllocs(h, p.Trace)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", p.Name, err)
	}
	// The replay's checksum is its applied-allocation count: a stable,
	// config-independent fingerprint of how much of the stream ran.
	res.Checksum = int64(stats.Allocs)
	res.GC = h.Stats()

	if err := prof.finish(res); err != nil {
		return nil, err
	}
	if rec != nil {
		if err := finishRecording(rec, res, opt, mach, 0, res.GC); err != nil {
			return nil, err
		}
	}
	res.finish(mach)
	return res, nil
}

func (r *Result) finish(mach *cpu.Machine) {
	r.Params = mach.Params()
	r.Total = mach.Total()
	r.Instrs = r.Total.Instrs
	r.Cycles = r.Total.Cycles
	for p := core.Phase(0); p < core.NumPhases; p++ {
		r.Phases[p] = mach.PhaseCounters(p)
	}
}
