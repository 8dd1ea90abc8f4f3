package harness

import (
	"cmp"
	"fmt"
	"io"

	"metajit/internal/bench"
	"metajit/internal/cpu"
	"metajit/internal/heap"
	"metajit/internal/mtjit"
	"metajit/internal/pylang"
	"metajit/internal/reqtrace"
)

// Spec is what one cell simulates, and so what it is: simulate builds the
// machine, the guest and the Result from a Spec and nothing else, the
// Runner memoizes by it, and the cluster's CellID is the hash of its
// canonical encoding. It is a comparable value with every default
// resolved — a nil override and a pointer to the default are one cell,
// and when a default changes, every address moves with it. Bench comes
// first: its length prefix opens the canonical encoding (cluster.IDOf).
type Spec struct {
	Bench string
	// TraceHash is the content hash of a trace benchmark's recording
	// (empty for synthetic programs). Two distinct recordings can carry
	// the same benchmark name (bench.FromTrace appends only a hash
	// prefix), so the full hash — not the name, never a file path — is
	// what keeps replay memoization sound.
	TraceHash string
	VM        VMKind

	// What the kind does not simulate stays zero: a static kernel has
	// no heap, sampling, engine or optimizer, and only a JIT kind that
	// runs guest code has an Engine and Opts.
	Heap           heap.Config
	SampleInterval uint64
	// Engine is the tier configuration the JIT runs, resolved for the
	// kind (see tierConfig) and normalized.
	Engine      mtjit.Config
	Opts        mtjit.OptConfig
	Params      cpu.Params
	ReplayAlloc bool
}

// Observe is how one call watches the run it causes: the five sinks, the
// two artifact requests and the Guest seam. The sinks and the watchers
// behind the requests only listen, so calls that differ only here are
// one cell; an artifact comes back in the Result of the call that asked,
// and Guest can change the run, which is why a Runner refuses all three.
// ProfileWindow is non-zero exactly when a profile was asked for.
type Observe struct {
	Live          *LiveTracker
	ReqTrace      *reqtrace.Span
	JITLog        io.Writer
	ProfileDir    string
	RecordDir     string
	ProfileWindow uint64
	Record        bool
	Guest         func(*pylang.VM)
}

// What a nil override resolves to. The heap geometry scales the paper's
// testbed down to simulator workload sizes; the optimizer set is the one
// mtjit.NewEngineConfig installs.
var (
	defaultHeap = heap.Config{
		NurserySize:    32 << 10,
		MajorThreshold: 384 << 10,
		MajorGrowth:    1.82,
	}
	defaultOpts   = mtjit.AllOpts()
	defaultParams = cpu.DefaultParams()
)

// split separates the two things an Options says. It is the only place
// that reads an Options field by field: an option that is neither in the
// Spec nor in the Observe does nothing (TestSplitDropsNoOption). An
// option the VM kind does not simulate is not in the Spec, so it names
// no second cell.
func (opt Options) split(p *bench.Program, kind VMKind) (Spec, Observe) {
	row := vmTable[kind]
	s := Spec{VM: kind, Params: defaultParams, ReplayAlloc: opt.ReplayAlloc}
	if p != nil {
		s.Bench, s.TraceHash = p.Name, p.TraceHash
	}
	if opt.Params != nil {
		s.Params = *opt.Params
	}
	// A static kernel keeps only what simulate refuses it.
	if row.profile != nil {
		s.Heap, s.SampleInterval = defaultHeap, opt.SampleInterval
		if opt.HeapConfig != nil {
			s.Heap = *opt.HeapConfig
		}
		if row.jit && !s.ReplayAlloc {
			s.Engine, s.Opts = row.tierConfig(opt), defaultOpts
			if opt.Opts != nil {
				s.Opts = *opt.Opts
			}
		}
	}
	obs := Observe{
		Live:       opt.Live,
		ReqTrace:   opt.ReqTrace,
		JITLog:     opt.JITLog,
		ProfileDir: opt.ProfileDir,
		RecordDir:  opt.RecordDir,
		Record:     opt.Record || opt.RecordDir != "",
		Guest:      opt.Guest,
	}
	if opt.Profile || opt.ProfileDir != "" {
		obs.ProfileWindow = cmp.Or(opt.ProfileWindow, DefaultProfileWindow)
	}
	return s, obs
}

// tierConfig resolves the engine configuration of a JIT kind: the
// Options thresholds, each lower tier the kind has at its threshold (a
// tier it lacks stays off whatever the Options say; a non-positive one
// keeps mtjit's default), then Normalize, which defaults the tracing and
// bridge thresholds the same way and clamps the tier ordering.
func (row vmRow) tierConfig(opt Options) mtjit.Config {
	c := mtjit.Config{
		Threshold:       opt.Threshold,
		BridgeThreshold: opt.BridgeThreshold,
		Adaptive:        row.adaptive || opt.Adaptive,
	}
	if row.baseline {
		c.BaselineThreshold = cmp.Or(max(opt.BaselineThreshold, 0), mtjit.DefaultBaselineThreshold)
	}
	if row.method {
		c.MethodThreshold = cmp.Or(max(opt.MethodThreshold, 0), mtjit.DefaultMethodThreshold)
	}
	return c.Normalize()
}

// Key returns the cell a call asks for.
func Key(p *bench.Program, kind VMKind, opt Options) Spec {
	s, _ := opt.split(p, kind)
	return s
}

// String renders the cell compactly for error messages: the benchmark and
// VM, plus a marker for each option group that is not at the kind's
// default.
func (s Spec) String() string {
	d := Key(nil, s.VM, Options{ReplayAlloc: s.ReplayAlloc})
	e, de := s.Engine, d.Engine
	out := fmt.Sprintf("%s/%s", s.Bench, s.VM)
	if s.SampleInterval != 0 {
		out += fmt.Sprintf("+sample=%d", s.SampleInterval)
	}
	mark := func(name string, v, def int) {
		if v != def {
			out += fmt.Sprintf("+%s=%d", name, v)
		}
	}
	mark("threshold", e.Threshold, de.Threshold)
	mark("bridge", e.BridgeThreshold, de.BridgeThreshold)
	mark("baseline", e.BaselineThreshold, de.BaselineThreshold)
	mark("method", e.MethodThreshold, de.MethodThreshold)
	if e.Adaptive != de.Adaptive {
		out += "+adaptive"
	}
	if s.Heap != d.Heap {
		out += "+heap"
	}
	if s.Opts != d.Opts {
		out += "+opts"
	}
	if s.Params != defaultParams {
		out += "+params"
	}
	if s.TraceHash != "" {
		out += "+trace=" + s.TraceHash[:min(8, len(s.TraceHash))]
	}
	if s.ReplayAlloc {
		out += "+replay-alloc"
	}
	return out
}
