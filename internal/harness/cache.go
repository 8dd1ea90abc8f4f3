package harness

import (
	"fmt"

	"metajit/internal/bench"
	"metajit/internal/cpu"
	"metajit/internal/heap"
	"metajit/internal/mtjit"
)

// CellKey is the canonical fingerprint of one experiment cell: a
// (benchmark, VM configuration, options) triple. Options are flattened by
// value — two Options that point at equal configs fingerprint identically
// — so the Runner simulates each distinct cell exactly once per process
// no matter which table or figure asks for it. Every field is comparable,
// letting the key index a map directly. Options.Live, ReqTrace and
// JITLog are deliberately excluded: each observes a run without changing
// its Result (keyExcluded in cache_audit_test.go argues each), so
// requests that differ only in them share a cell.
type CellKey struct {
	Bench string
	VM    VMKind

	HasHeap bool
	Heap    heap.Config

	SampleInterval    uint64
	Threshold         int
	BridgeThreshold   int
	BaselineThreshold int
	MethodThreshold   int
	Adaptive          bool

	HasOpts bool
	Opts    mtjit.OptConfig

	HasParams bool
	Params    cpu.Params

	MaxInstrs uint64

	Profile       bool
	ProfileDir    string
	ProfileWindow uint64

	// TraceHash is the content hash of a trace benchmark's recording
	// (empty for synthetic programs). Two distinct recordings can carry
	// the same benchmark name (bench.FromTrace appends only a hash
	// prefix), so the full hash — not the name, never a file path — is
	// what keeps replay memoization sound.
	TraceHash string

	Record      bool
	RecordDir   string
	ReplayAlloc bool
}

// Key fingerprints a cell.
func Key(p *bench.Program, kind VMKind, opt Options) CellKey {
	k := CellKey{
		VM:                kind,
		SampleInterval:    opt.SampleInterval,
		Threshold:         opt.Threshold,
		BridgeThreshold:   opt.BridgeThreshold,
		BaselineThreshold: opt.BaselineThreshold,
		MethodThreshold:   opt.MethodThreshold,
		Adaptive:          opt.Adaptive,
		MaxInstrs:         opt.MaxInstrs,
		Profile:           opt.Profile,
		ProfileDir:        opt.ProfileDir,
		ProfileWindow:     opt.ProfileWindow,
		Record:            opt.Record,
		RecordDir:         opt.RecordDir,
		ReplayAlloc:       opt.ReplayAlloc,
	}
	if p != nil {
		k.Bench = p.Name
		k.TraceHash = p.TraceHash
	}
	if opt.HeapConfig != nil {
		k.HasHeap = true
		k.Heap = *opt.HeapConfig
	}
	if opt.Opts != nil {
		k.HasOpts = true
		k.Opts = *opt.Opts
	}
	if opt.Params != nil {
		k.HasParams = true
		k.Params = *opt.Params
	}
	return k
}

// String renders the key compactly for error messages: the benchmark and
// VM, plus a marker for each non-default option group.
func (k CellKey) String() string {
	s := fmt.Sprintf("%s/%s", k.Bench, k.VM)
	if k.SampleInterval != 0 {
		s += fmt.Sprintf("+sample=%d", k.SampleInterval)
	}
	if k.Threshold != 0 {
		s += fmt.Sprintf("+threshold=%d", k.Threshold)
	}
	if k.BridgeThreshold != 0 {
		s += fmt.Sprintf("+bridge=%d", k.BridgeThreshold)
	}
	if k.BaselineThreshold != 0 {
		s += fmt.Sprintf("+baseline=%d", k.BaselineThreshold)
	}
	if k.MethodThreshold != 0 {
		s += fmt.Sprintf("+method=%d", k.MethodThreshold)
	}
	if k.Adaptive {
		s += "+adaptive"
	}
	if k.HasHeap {
		s += "+heap"
	}
	if k.HasOpts {
		s += "+opts"
	}
	if k.HasParams {
		s += "+params"
	}
	if k.MaxInstrs != 0 {
		s += fmt.Sprintf("+max=%d", k.MaxInstrs)
	}
	if k.Profile || k.ProfileDir != "" {
		s += "+profile"
	}
	if k.TraceHash != "" {
		s += "+trace=" + k.TraceHash[:min(8, len(k.TraceHash))]
	}
	if k.Record || k.RecordDir != "" {
		s += "+record"
	}
	if k.ReplayAlloc {
		s += "+replay-alloc"
	}
	return s
}
