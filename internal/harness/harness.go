// Package harness runs benchmarks across VM configurations and
// regenerates every table and figure of the paper's evaluation. Simulated
// time is reported as cycles of the modeled core (the paper's seconds
// column maps to simulated cycles; shapes, not absolute values, are the
// reproduction target).
package harness

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
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

// vmRow is what one VMKind means to a run: the interpreter cost profile
// (nil for the static kernels, which have no guest VM), the guest
// language and the tiers in front of the interpreter.
type vmRow struct {
	profile  func() *mtjit.CostProfile
	scheme   bool // runs the benchmark's Scheme source through sklang
	jit      bool
	baseline bool
	method   bool
	adaptive bool
}

// vmTable is the one VM table: ParseVMKind, Run and the "unknown VM"
// refusal read it, and TestParseVMKindCoversEveryKind fails when a VMKind
// constant is missing from it.
var vmTable = map[VMKind]vmRow{
	VMCPython:      {profile: mtjit.ReferenceProfile},
	VMPyPyNoJIT:    {profile: mtjit.FrameworkProfile},
	VMPyPyJIT:      {profile: mtjit.FrameworkProfile, jit: true},
	VMPyPyTiered:   {profile: mtjit.FrameworkProfile, jit: true, baseline: true},
	VMPyPyAmalg:    {profile: mtjit.FrameworkProfile, jit: true, baseline: true, method: true},
	VMPyPyAdaptive: {profile: mtjit.FrameworkProfile, jit: true, baseline: true, method: true, adaptive: true},
	VMRacket:       {profile: mtjit.CustomVMProfile, scheme: true},
	VMPycket:       {profile: mtjit.FrameworkProfile, scheme: true, jit: true},
	VMC:            {},
}

// ParseVMKind resolves a VM name arriving from outside the process (a
// /run request body) to its kind.
func ParseVMKind(name string) (VMKind, error) {
	if _, ok := vmTable[VMKind(name)]; !ok {
		return "", fmt.Errorf("unknown vm %q", name)
	}
	return VMKind(name), nil
}

// Options is the one input literal of a run. It says two things that
// never mix: what is simulated, which split resolves into a Spec (the
// cell's identity), and how the run is watched, which split collects
// into an Observe (the sinks, the artifact requests and the Guest seam).
type Options struct {
	// HeapConfig overrides the benchmark heap geometry. The default
	// scales the paper's testbed down to simulator workload sizes: a
	// nursery small relative to benchmark working sets, so that GC
	// pressure (binarytrees!) shows the same shape. A static kernel
	// has no heap and ignores it.
	HeapConfig *heap.Config
	// SampleInterval enables WorkMeter sampling every N instructions
	// (ignored by a static kernel).
	SampleInterval uint64
	// The tier settings: split resolves them with the kind's defaults
	// into Spec.Engine, a kind without a JIT ignores them, and a
	// threshold at or below zero keeps the default. Threshold and
	// BridgeThreshold set the tracing and bridge thresholds.
	Threshold       int
	BridgeThreshold int
	// BaselineThreshold sets the tier-1 compile threshold of a kind with
	// the baseline tier (pypy-tiered, pypy-amalg, pypy-adaptive); it is
	// clamped below the tracing threshold.
	BaselineThreshold int
	// MethodThreshold sets the tier-2 method-compile threshold of a kind
	// with the method tier (pypy-amalg, pypy-adaptive).
	MethodThreshold int
	// Adaptive turns the adaptive tier controller on for any JIT kind
	// (pypy-adaptive has it on).
	Adaptive bool
	// Opts overrides the optimizer configuration of a JIT kind.
	Opts *mtjit.OptConfig
	// Params overrides the CPU model.
	Params *cpu.Params
	// Profile attaches the streaming cross-layer profiler
	// (internal/profile) to the run; Result.Profile holds the finished
	// profiler. It only listens, so it is watched (Observe), not
	// simulated: a Runner refuses it, like ProfileDir, Record and
	// RecordDir, and the artifact is this Run call's alone.
	Profile bool
	// ProfileWindow overrides the interval time-series window of a
	// profiled run in retired instructions (0: DefaultProfileWindow).
	ProfileWindow uint64
	// Record attaches the trace recorder (internal/trace): every
	// cross-layer annotation and heap allocation/free event is captured
	// into Result.Trace, with the run's outcome sealed into the trace
	// Summary.
	Record bool
	// ReplayAlloc replays the benchmark's recorded allocation/free
	// event stream directly against a fresh heap (trace.ReplayAllocs,
	// the dj_trace mode) instead of executing guest code. Requires a
	// trace benchmark (bench.FromTrace / bench.LoadTraceDir).
	ReplayAlloc bool

	// The five sinks (Observe). One rule for all of them: a sink is fed
	// by the call that simulates the cell; a Runner memo hit feeds none.

	// ProfileDir, when non-empty, implies Profile and writes the profile
	// artifacts (ProfileArtifacts names them) there, creating the
	// directory if needed.
	ProfileDir string
	// RecordDir, when non-empty, implies Record and writes the trace
	// file (trace.FileName) there, creating the directory if needed.
	RecordDir string
	// Live, when non-nil, registers the run with a LiveTracker so its
	// progress can be observed mid-flight (the mtjitd introspection
	// endpoints).
	Live *LiveTracker
	// ReqTrace, when non-nil, links this run into a request trace: the
	// profiler is attached (with the interval series off unless Profile
	// also asks for it) and every closed phase span is forwarded to the
	// request span, in simulated microseconds, so the serving stack's
	// merged Chrome export can decompose the request down to
	// GC/tracing/JIT phases.
	ReqTrace *reqtrace.Span
	// JITLog, when non-nil and the run has a JIT, receives the JIT log
	// dump (jitlog.Dump) after main returns; a write error is the
	// run's error. The traces end with the run and Result.IR keeps their
	// statistics.
	JITLog io.Writer

	// Guest, when non-nil, is called with the guest VM after it is built
	// and before the program loads. It is the test seam: a caller can
	// set engine knobs no Spec field names (TraceLimit, the forced-guard
	// hooks) and keep the VM to read its output, machine and engine once
	// Run returns, a guest error included. What it changes is simulated
	// but not in the Spec, so a Runner refuses Options that set it.
	Guest func(*pylang.VM)
}

// DefaultProfileWindow is the time-series window (in retired
// instructions) used when profiling is on and no override is given.
const DefaultProfileWindow = 1 << 16

// Result is one benchmark execution's measurements. It is a value:
// everything a default run produces is numbers and strings computed when
// the run ends, so a memoized Result holds no machine, trace or guest
// heap (TestResultHoldsNoGraph). Profile and Trace are the two artifacts
// a Run call asks for by name; they are nil otherwise.
type Result struct {
	Bench string
	VM    VMKind

	// Params is the CPU model the run used (Spec.Params).
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
	// Options.Profile or ProfileDir asked for it).
	Profile *profile.Profiler

	// HeapChecksum is the structural hash of the final guest-visible
	// heap (pylang.VM.HeapChecksum); 0 for static-kernel and
	// alloc-replay runs, which have no guest heap state.
	HeapChecksum uint64
	// Trace is the finished recording (nil unless Options.Record or
	// RecordDir asked for it).
	Trace *trace.Trace
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

// Run executes one benchmark on one VM configuration: split says what is
// simulated and who watches, simulate does both.
func Run(p *bench.Program, kind VMKind, opt Options) (*Result, error) {
	spec, obs := opt.split(p, kind)
	return simulate(p, spec, obs)
}

// run is one simulation in flight: the machine, its observers in
// registration order and, as they come to exist, the guest heap, VM and
// JIT engine that span labels and the final reduction read.
type run struct {
	p    *bench.Program
	spec Spec
	obs  Observe

	// guest and source name what runs; a recording's header carries them.
	guest, source string

	mach   *cpu.Machine
	live   *LiveRun
	wm     *pintool.WorkMeter
	att    *pintool.AOTAttributor
	events *pintool.TraceEventCounter
	prof   *profile.Profiler // obs.ProfileWindow or obs.ReqTrace
	rec    *trace.Recorder   // obs.Record

	heap *heap.Heap
	vm   *pylang.VM    // nil for an alloc replay
	eng  *mtjit.Engine // nil without a JIT

	// The profile's Chrome trace streams into obs.ProfileDir as the run
	// goes.
	chromeFile *os.File
	chromeBuf  *bufio.Writer
}

// simulate builds the machine, the guest and the Result from the Spec
// alone; obs only watches. What cannot run is refused first, before a
// machine exists or a live run is registered.
func simulate(p *bench.Program, spec Spec, obs Observe) (*Result, error) {
	row, ok := vmTable[spec.VM]
	if !ok {
		return nil, fmt.Errorf("harness: unknown VM %q", spec.VM)
	}
	r := &run{p: p, spec: spec, obs: obs, guest: trace.GuestPy, source: p.Source}
	var kernel *static.Kernel
	switch {
	case row.profile == nil:
		// A static kernel has no annotation stream: there is nothing to
		// profile, record or replay.
		if obs.ProfileWindow != 0 || obs.Record || spec.ReplayAlloc {
			return nil, fmt.Errorf("harness: profile and trace record/replay unsupported for %s", spec.VM)
		}
		if kernel = static.ByName(p.Name); kernel == nil {
			return nil, fmt.Errorf("harness: no static kernel for %s", p.Name)
		}
	case spec.ReplayAlloc:
		if p.Trace == nil {
			return nil, fmt.Errorf("harness: %s: replay-alloc needs a trace benchmark (bench.FromTrace)", p.Name)
		}
		r.guest, r.source = p.Trace.Header.Guest, p.Trace.Header.Source
	default:
		// The language follows the program: one with no Python source
		// runs its Scheme source on any guest kind.
		if row.scheme || p.Source == "" {
			r.guest, r.source = trace.GuestSk, p.SkSource
		}
		if r.source == "" {
			return nil, fmt.Errorf("harness: %s has no source for %s", p.Name, spec.VM)
		}
	}

	r.mach = cpu.New(spec.Params)
	// Live tracking begins before any guest work and ends on every exit
	// path (including errors), so a daemon's run listing never shows a
	// run stuck in flight. Static-kernel runs get begin/end snapshots
	// only: no annotation stream, nothing to observe mid-run.
	r.live = obs.Live.begin(p.Name, spec.VM, r.mach)
	defer r.live.end()

	res := &Result{Bench: p.Name, VM: spec.VM}
	if kernel != nil {
		res.Checksum = kernel.Run(r.mach)
		res.readCounters(r.mach)
		return res, nil
	}
	if err := r.attach(); err != nil {
		return nil, err
	}
	defer r.close()
	var err error
	if spec.ReplayAlloc {
		res.Checksum, err = r.replayAllocs()
	} else {
		res.Checksum, err = r.runGuest()
	}
	if err != nil {
		return nil, err
	}
	if err := r.finish(res); err != nil {
		return nil, err
	}
	return res, nil
}

// attach registers every observer, before any guest code runs, in the
// order the goldens were recorded under. The phase tracker is first so
// that everything after it sees the post-switch phase; the profiler and
// the recorder are last and hear the same annotation stream.
func (r *run) attach() error {
	pintool.NewPhaseTracker(r.mach)
	r.live.attach()
	r.wm = pintool.NewWorkMeter(r.mach, r.spec.SampleInterval)
	r.att = pintool.NewAOTAttributor(r.mach)
	r.events = pintool.NewTraceEventCounter(r.mach)
	if err := r.attachProfiler(); err != nil {
		return err
	}
	if r.obs.Record {
		r.rec = trace.NewRecorder(trace.Header{
			Guest:  r.guest,
			Name:   r.p.Name,
			VM:     string(r.spec.VM),
			Source: r.source,
			Config: snapshotConfig(r.spec),
		})
		r.mach.Observe(r.rec)
	}
	return nil
}

// setHeap hands the run its heap the moment it exists, before any guest
// code (module init included) allocates from it: the recorder traces its
// allocations and finish reads its statistics.
func (r *run) setHeap(h *heap.Heap) {
	r.heap = h
	if r.rec != nil {
		h.SetTracer(r.rec)
	}
}

// runGuest builds the guest VM the Spec describes, loads the program and
// returns main's result: its value when that is an int, which every
// benchmark returns, and otherwise its kind-tagged structural checksum
// (pylang.VM.ValueChecksum), so None, True, 1 and 1.0 all differ. A guest
// error, at load or in main, ends the run and comes back as an error
// wrapping the *pylang.GuestError; any other panic keeps unwinding.
func (r *run) runGuest() (sum int64, err error) {
	row := vmTable[r.spec.VM]
	cfg := pylang.Config{Profile: row.profile(), Opts: &r.spec.Opts, HeapConfig: &r.spec.Heap}
	if row.jit {
		cfg.Engine = &r.spec.Engine
	}
	vm := pylang.New(r.mach, cfg)
	r.vm, r.eng = vm, vm.Eng
	r.setHeap(vm.H)
	r.live.setEngine(vm.Eng)
	if r.obs.Guest != nil {
		r.obs.Guest(vm)
	}
	defer func() {
		if v := recover(); v != nil {
			g, ok := v.(*pylang.GuestError)
			if !ok {
				panic(v)
			}
			sum, err = 0, fmt.Errorf("harness: %s on %s: %w", r.p.Name, r.spec.VM, g)
		}
	}()
	if r.guest == trace.GuestSk {
		vm.UnicodeStrings = false
		err = sklang.Load(vm, r.source)
	} else {
		err = vm.LoadModule(r.p.Name, r.source)
	}
	if err != nil {
		return 0, fmt.Errorf("harness: %s on %s: %w", r.p.Name, r.spec.VM, err)
	}
	v := vm.RunFunction("main")
	if v.Kind != heap.KindInt {
		return int64(vm.ValueChecksum(v)), nil
	}
	return v.I, nil
}

// replayAllocs is the dj_trace execution mode: no guest code runs; the
// trace's allocation/free event stream drives a fresh heap (and through
// it the generational collector) directly. Every observer works
// unchanged — the annotation stream simply contains only GC activity.
func (r *run) replayAllocs() (int64, error) {
	h := heap.New(r.mach, r.spec.Heap)
	r.setHeap(h)
	stats, err := trace.ReplayAllocs(h, r.p.Trace)
	if err != nil {
		return 0, fmt.Errorf("harness: %s: %w", r.p.Name, err)
	}
	// The replay's checksum is its applied-allocation count: a stable,
	// config-independent fingerprint of how much of the stream ran.
	return int64(stats.Allocs), nil
}

// finish ends the run. The observers are reduced to values first — the
// machine, the traces and the guest heap end with this call — then the
// run is counted into the stack's telemetry once, and only then are the
// sinks fed: nothing a sink does can reach res.
func (r *run) finish(res *Result) error {
	res.GC = r.heap.Stats()
	res.Bytecodes = r.wm.Bytecodes
	res.Samples = r.wm.Samples
	res.Events = *r.events
	if r.eng != nil {
		res.IR = jitlog.StatsOf(r.eng)
		res.EngStats = r.eng.Stats()
	}
	if r.vm != nil {
		for _, f := range r.vm.RT.Funcs() {
			if cyc, calls, ok := r.att.Func(f.ID); ok {
				res.AOT = append(res.AOT, AOTCost{Name: f.Name, Src: f.Src.String(), Cycles: float64(cyc), Calls: calls})
			}
		}
		// The heap checksum is a pure Go walk (no simulated
		// instructions), so computing it here perturbs nothing; it feeds
		// the recorded summary and the record→replay equivalence checks.
		res.HeapChecksum = r.vm.HeapChecksum()
	}
	res.readCounters(r.mach)
	if r.prof != nil {
		r.prof.Finish()
		// Only a profile that was asked for: a memoized Result must not
		// hold the interval series of a profiler a request span attached.
		if r.obs.ProfileWindow != 0 {
			res.Profile = r.prof
		}
	}
	if r.rec != nil {
		res.Trace = r.rec.Finish(r.summary(res))
	}
	r.count(res)

	if r.prof != nil {
		// On the serving path nothing else reads the profiler's errors.
		if err := r.prof.Err(); err != nil {
			r.obs.ReqTrace.Annotate("profile_err", err.Error())
		}
	}
	if r.obs.ProfileDir != "" {
		if err := r.writeProfile(); err != nil {
			return err
		}
	}
	if r.obs.JITLog != nil && r.eng != nil {
		if _, err := io.WriteString(r.obs.JITLog, jitlog.Dump(r.eng)); err != nil {
			return fmt.Errorf("harness: %s on %s: jit log: %w", r.p.Name, r.spec.VM, err)
		}
	}
	if r.obs.RecordDir != "" {
		path := filepath.Join(r.obs.RecordDir, trace.FileName(res.Bench, string(res.VM)))
		if err := trace.WriteFile(path, res.Trace); err != nil {
			return fmt.Errorf("harness: record: %w", err)
		}
	}
	return nil
}

// summary seals the run's outcome for the recording.
func (r *run) summary(res *Result) trace.Summary {
	sum := trace.Summary{
		Checksum:     res.Checksum,
		HeapChecksum: res.HeapChecksum,
		Instrs:       res.Instrs,
		CyclesBits:   math.Float64bits(res.Cycles),
		Phases:       make([]trace.PhaseSum, core.NumPhases),
		GC: trace.GCSum{
			Minor:         res.GC.Minor,
			Major:         res.GC.Major,
			AllocObjects:  res.GC.AllocObjects,
			AllocBytes:    res.GC.AllocBytes,
			PromotedBytes: res.GC.PromotedBytes,
			Skipped:       res.GC.Skipped,
		},
	}
	for ph, c := range res.Phases {
		sum.Phases[ph] = trace.PhaseSum{Instrs: c.Instrs, CyclesBits: math.Float64bits(c.Cycles)}
	}
	return sum
}

// snapshotConfig pins the replay-affecting part of a Spec into a trace
// header.
func snapshotConfig(s Spec) trace.ConfigSnapshot {
	return trace.ConfigSnapshot{
		Threshold:         int64(s.Engine.Threshold),
		BridgeThreshold:   int64(s.Engine.BridgeThreshold),
		BaselineThreshold: int64(s.Engine.BaselineThreshold),
		MethodThreshold:   int64(s.Engine.MethodThreshold),
		Adaptive:          s.Engine.Adaptive,
		NurserySize:       s.Heap.NurserySize,
		MajorThreshold:    s.Heap.MajorThreshold,
		MajorGrowthBits:   math.Float64bits(s.Heap.MajorGrowth),
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

// readCounters copies the machine's final counters into the Result.
func (r *Result) readCounters(mach *cpu.Machine) {
	r.Params = mach.Params()
	r.Total = mach.Total()
	r.Instrs, r.Cycles = r.Total.Instrs, r.Total.Cycles
	for p := core.Phase(0); p < core.NumPhases; p++ {
		r.Phases[p] = mach.PhaseCounters(p)
	}
}
