package harness

import (
	"fmt"
	"io"

	"metajit/internal/bench"
	"metajit/internal/cpu"
	"metajit/internal/heap"
	"metajit/internal/mtjit"
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

	Heap              heap.Config
	SampleInterval    uint64
	Threshold         int
	BridgeThreshold   int
	BaselineThreshold int
	MethodThreshold   int
	Adaptive          bool
	Opts              mtjit.OptConfig
	Params            cpu.Params

	// Profile and Record say whether Result.Profile and Result.Trace
	// exist; ProfileWindow is zero unless Profile.
	Profile       bool
	ProfileWindow uint64
	Record        bool
	ReplayAlloc   bool
}

// Observe is how one call watches the run it causes: sinks only. None of
// them can reach the Result — simulate hands them what happened after the
// Result is complete — so requests that differ only here share a cell,
// and the call that simulates the cell is the one whose sinks are fed.
type Observe struct {
	Live       *LiveTracker
	ReqTrace   *reqtrace.Span
	JITLog     io.Writer
	ProfileDir string
	RecordDir  string
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
// Spec nor in the Observe does nothing (TestSplitDropsNoOption).
func (opt Options) split(p *bench.Program, kind VMKind) (Spec, Observe) {
	s := Spec{
		VM:                kind,
		Heap:              defaultHeap,
		SampleInterval:    opt.SampleInterval,
		Threshold:         opt.Threshold,
		BridgeThreshold:   opt.BridgeThreshold,
		BaselineThreshold: opt.BaselineThreshold,
		MethodThreshold:   opt.MethodThreshold,
		Adaptive:          opt.Adaptive,
		Opts:              defaultOpts,
		Params:            defaultParams,
		Profile:           opt.Profile || opt.ProfileDir != "",
		Record:            opt.Record || opt.RecordDir != "",
		ReplayAlloc:       opt.ReplayAlloc,
	}
	if p != nil {
		s.Bench, s.TraceHash = p.Name, p.TraceHash
	}
	if opt.HeapConfig != nil {
		s.Heap = *opt.HeapConfig
	}
	if opt.Opts != nil {
		s.Opts = *opt.Opts
	}
	if opt.Params != nil {
		s.Params = *opt.Params
	}
	if s.Profile {
		s.ProfileWindow = opt.ProfileWindow
		if s.ProfileWindow == 0 {
			s.ProfileWindow = DefaultProfileWindow
		}
	}
	return s, Observe{
		Live:       opt.Live,
		ReqTrace:   opt.ReqTrace,
		JITLog:     opt.JITLog,
		ProfileDir: opt.ProfileDir,
		RecordDir:  opt.RecordDir,
	}
}

// Key returns the cell a call asks for.
func Key(p *bench.Program, kind VMKind, opt Options) Spec {
	s, _ := opt.split(p, kind)
	return s
}

// String renders the cell compactly for error messages: the benchmark and
// VM, plus a marker for each option group that is not at its default.
func (s Spec) String() string {
	out := fmt.Sprintf("%s/%s", s.Bench, s.VM)
	if s.SampleInterval != 0 {
		out += fmt.Sprintf("+sample=%d", s.SampleInterval)
	}
	if s.Threshold != 0 {
		out += fmt.Sprintf("+threshold=%d", s.Threshold)
	}
	if s.BridgeThreshold != 0 {
		out += fmt.Sprintf("+bridge=%d", s.BridgeThreshold)
	}
	if s.BaselineThreshold != 0 {
		out += fmt.Sprintf("+baseline=%d", s.BaselineThreshold)
	}
	if s.MethodThreshold != 0 {
		out += fmt.Sprintf("+method=%d", s.MethodThreshold)
	}
	if s.Adaptive {
		out += "+adaptive"
	}
	if s.Heap != defaultHeap {
		out += "+heap"
	}
	if s.Opts != defaultOpts {
		out += "+opts"
	}
	if s.Params != defaultParams {
		out += "+params"
	}
	if s.Profile {
		out += "+profile"
	}
	if s.TraceHash != "" {
		out += "+trace=" + s.TraceHash[:min(8, len(s.TraceHash))]
	}
	if s.Record {
		out += "+record"
	}
	if s.ReplayAlloc {
		out += "+replay-alloc"
	}
	return out
}
