package reqtrace

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Config sizes a process's Recorder. The zero value gets sane defaults;
// all bounds exist so tracing can stay always-on without growing with
// load.
type Config struct {
	// Process names this recorder's process in exports ("frontend",
	// "worker-w0", ...).
	Process string
	// Capacity is how many completed span trees the flight ring retains
	// (default 64).
	Capacity int
	// MaxSpans bounds the spans recorded per tree; once reached,
	// StartChild returns nil and the tree counts the drop (default 256).
	MaxSpans int
	// MaxVMSpans bounds the VM phase spans captured per simulate span
	// (default 4096); a long run's remaining phases are counted, not
	// stored.
	MaxVMSpans int
	// DumpDir receives anomaly dumps (reqtrace-<process>-<seq>.json).
	// Empty means dumps go to stderr.
	DumpDir string
}

// Recorder is one process's tracing state: an ID source, the set of
// in-flight trees, and the flight-recorder ring of completed trees. All
// methods are safe on a nil *Recorder (they no-op / return nil), so
// call sites never need tracing-enabled branches.
type Recorder struct {
	cfg Config
	ids *IDSource

	mu    sync.Mutex
	ring  []*Tree // completed trees, oldest first
	live  map[*Tree]struct{}
	seq   uint64 // anomaly dump sequence
	drops atomic.Uint64
}

// NewRecorder builds a recorder for one process.
func NewRecorder(cfg Config) *Recorder {
	if cfg.Process == "" {
		cfg.Process = "proc"
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 64
	}
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = 256
	}
	if cfg.MaxVMSpans <= 0 {
		cfg.MaxVMSpans = 4096
	}
	return &Recorder{
		cfg:  cfg,
		ids:  newProcessIDSource(),
		live: make(map[*Tree]struct{}),
	}
}

// Process returns the configured process name ("" on nil).
func (r *Recorder) Process() string {
	if r == nil {
		return ""
	}
	return r.cfg.Process
}

// StartTrace begins a new span tree. When parent is non-zero the tree
// joins that trace (its root is a child of the propagated span);
// otherwise a fresh trace ID is minted. name/kind describe the root
// span. Returns nil on a nil recorder.
func (r *Recorder) StartTrace(parent Context, kind, name string) *Span {
	if r == nil {
		return nil
	}
	trace := parent.Trace
	if trace.IsZero() {
		trace = r.ids.TraceID()
	}
	t := &Tree{rec: r, trace: trace, start: time.Now()}
	root := &Span{
		tree:   t,
		id:     r.ids.SpanID(),
		parent: parent.Span,
		kind:   kind,
		name:   name,
		start:  t.start,
	}
	t.spans = append(t.spans, root)
	r.mu.Lock()
	r.live[t] = struct{}{}
	r.mu.Unlock()
	return root
}

// finish moves a completed tree from the live set into the ring.
func (r *Recorder) finish(t *Tree) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.live, t)
	if len(r.ring) >= r.cfg.Capacity {
		n := copy(r.ring, r.ring[1:])
		r.ring = r.ring[:n]
	}
	r.ring = append(r.ring, t)
}

// Trees snapshots up to n completed trees, newest first (n <= 0 means
// all). Snapshots are deep value copies — safe to serialize without
// holding any lock.
func (r *Recorder) Trees(n int) []TreeSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	trees := make([]*Tree, len(r.ring))
	copy(trees, r.ring)
	r.mu.Unlock()
	if n <= 0 || n > len(trees) {
		n = len(trees)
	}
	out := make([]TreeSnapshot, 0, n)
	for i := len(trees) - 1; i >= len(trees)-n; i-- {
		out = append(out, trees[i].Snapshot())
	}
	return out
}

// Find returns the completed trees of one trace, oldest first (usually
// zero or one per process; a retried request can complete several).
func (r *Recorder) Find(trace TraceID) []TreeSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	var match []*Tree
	for _, t := range r.ring {
		if t.trace == trace {
			match = append(match, t)
		}
	}
	r.mu.Unlock()
	out := make([]TreeSnapshot, len(match))
	for i, t := range match {
		out[i] = t.Snapshot()
	}
	return out
}

// Dropped reports how many span starts were refused by per-tree bounds
// since the process started.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.drops.Load()
}

// Dump is the JSON shape of a flight-recorder dump (and of the
// /debug/reqtrace listing).
type Dump struct {
	Process string         `json:"process"`
	Reason  string         `json:"reason,omitempty"`
	Time    time.Time      `json:"time"`
	Dropped uint64         `json:"dropped_spans,omitempty"`
	Trees   []TreeSnapshot `json:"trees"`
}

// Anomaly dumps the flight ring — the last Capacity completed span
// trees — to DumpDir (or stderr) tagged with reason. Called on panic,
// drain, and store-corruption quarantine; safe (and a no-op) on nil.
// It returns the path written, or "" when dumping to stderr or on
// error.
func (r *Recorder) Anomaly(reason string) string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	r.seq++
	seq := r.seq
	r.mu.Unlock()
	d := Dump{
		Process: r.cfg.Process,
		Reason:  reason,
		Time:    time.Now().UTC(),
		Dropped: r.Dropped(),
		Trees:   r.Trees(0),
	}
	blob, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return ""
	}
	if r.cfg.DumpDir == "" {
		fmt.Fprintf(os.Stderr, "reqtrace anomaly (%s): %s\n", reason, blob)
		return ""
	}
	path := filepath.Join(r.cfg.DumpDir, fmt.Sprintf("reqtrace-%s-%03d.json", r.cfg.Process, seq))
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "reqtrace anomaly (%s): dump failed: %v\n", reason, err)
		return ""
	}
	return path
}

// Tree is one request's spans within one process. Spans append under
// the tree's mutex because singleflight followers and detached dispatch
// goroutines can still be recording when the leader's handler returns.
type Tree struct {
	rec   *Recorder
	trace TraceID

	mu       sync.Mutex
	start    time.Time
	spans    []*Span // index 0 is the root
	dropped  int
	finished bool
}

// Trace returns the tree's trace ID.
func (t *Tree) Trace() TraceID { return t.trace }

// Span is one typed operation inside a tree. A nil *Span is a valid
// no-op recorder, which is how bounds overflow and disabled tracing
// degrade: every method checks the receiver.
type Span struct {
	tree   *Tree
	id     SpanID
	parent SpanID // zero for a tree root with no propagated parent
	kind   string
	name   string
	start  time.Time

	// Guarded by tree.mu after publication.
	end   time.Time
	err   string
	attrs []Attr
	vm    []VMSpan

	// vmFull is set, under tree.mu, once vm holds MaxVMSpans spans;
	// vmCut counts the spans cut from then on. Both are atomics so a
	// long simulation's steady state past the cap takes no lock.
	vmFull atomic.Bool
	vmCut  atomic.Int64
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// VMSpan is one simulator phase span captured from internal/profile,
// in simulated microseconds relative to the run's start. Depth
// reconstructs nesting without pointers, and Instrs/Cycles carry the
// per-phase work for IPC annotation in the merged export.
type VMSpan struct {
	Label   string  `json:"label"`
	Phase   string  `json:"phase"`
	Depth   int     `json:"depth"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	Instrs  uint64  `json:"instrs,omitempty"`
	Cycles  uint64  `json:"cycles,omitempty"`
}

// Context returns the propagation context pointing at this span — what
// goes into the traceparent header of the next hop. Zero on nil.
func (s *Span) Context() Context {
	if s == nil {
		return Context{}
	}
	return Context{Trace: s.tree.trace, Span: s.id}
}

// StartChild opens a typed child span. Returns nil (a no-op span) on a
// nil receiver, on an already-finished tree, or when the tree's span
// bound is reached.
func (s *Span) StartChild(kind, name string) *Span {
	if s == nil {
		return nil
	}
	t := s.tree
	child := &Span{
		tree:   t,
		id:     t.rec.ids.SpanID(),
		parent: s.id,
		kind:   kind,
		name:   name,
		start:  time.Now(),
	}
	t.mu.Lock()
	if t.finished || len(t.spans) >= t.rec.cfg.MaxSpans {
		t.dropped++
		t.mu.Unlock()
		t.rec.drops.Add(1)
		return nil
	}
	t.spans = append(t.spans, child)
	t.mu.Unlock()
	return child
}

// Annotate attaches a key/value pair (bounded: at most 16 per span).
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.tree.mu.Lock()
	if len(s.attrs) < 16 {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
	s.tree.mu.Unlock()
}

// SetKind retypes a span after the fact — e.g. a provisional
// singleflight span becomes "wait" or "lead" once the outcome is known.
func (s *Span) SetKind(kind string) {
	if s == nil {
		return
	}
	s.tree.mu.Lock()
	s.kind = kind
	s.tree.mu.Unlock()
}

// AddVM appends one VM phase span (bounded by MaxVMSpans; overflow is
// counted). Called by the harness's profile sink during a simulation.
// Depth-0 spans — the profiler delivers exactly one, the interp root
// covering the whole run, at Finish — are retained even past the cap,
// so a truncated capture still frames the run it belongs to.
func (s *Span) AddVM(v VMSpan) {
	if s == nil || v.Depth != 0 && s.CutVM() {
		return
	}
	max := s.tree.rec.cfg.MaxVMSpans
	s.tree.mu.Lock()
	if len(s.vm) < max || v.Depth == 0 {
		s.vm = append(s.vm, v)
		if len(s.vm) >= max {
			s.vmFull.Store(true)
		}
	} else {
		s.vmCut.Add(1)
	}
	s.tree.mu.Unlock()
}

// CutVM reports whether AddVM would cut a span below depth 0 — the VM
// capture is full, or the receiver is nil — and if so counts the cut,
// so the profile sink can skip building a VMSpan nobody will keep.
func (s *Span) CutVM() bool {
	if s == nil {
		return true
	}
	if !s.vmFull.Load() {
		return false
	}
	s.vmCut.Add(1)
	return true
}

// End closes the span. Ending the tree's root completes the tree and
// pushes it into the flight ring; double-End is harmless.
func (s *Span) End() { s.EndErr(nil) }

// EndErr closes the span recording an outcome error (nil for success).
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	t := s.tree
	t.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
		if err != nil {
			s.err = err.Error()
		}
	}
	root := len(t.spans) > 0 && t.spans[0] == s
	done := root && !t.finished
	if done {
		t.finished = true
		// Orphaned children (still open when the root ends — e.g. a
		// detached dispatch abandoned by context timeout) are closed at
		// the root's end so every snapshot is well-formed.
		for _, c := range t.spans[1:] {
			if c.end.IsZero() {
				c.end = s.end
				if c.err == "" {
					c.err = "unfinished"
				}
			}
		}
	}
	t.mu.Unlock()
	if done {
		t.rec.finish(t)
	}
}

// SpanSnapshot is the immutable JSON form of one span. Times are
// wall-clock; DurUS is derived for convenience.
type SpanSnapshot struct {
	ID     string    `json:"id"`
	Parent string    `json:"parent,omitempty"`
	Kind   string    `json:"kind"`
	Name   string    `json:"name,omitempty"`
	Start  time.Time `json:"start"`
	DurUS  float64   `json:"dur_us"`
	Err    string    `json:"err,omitempty"`
	Attrs  []Attr    `json:"attrs,omitempty"`
	VM     []VMSpan  `json:"vm,omitempty"`
	VMCut  int       `json:"vm_dropped,omitempty"`
}

// TreeSnapshot is the immutable JSON form of one completed (or
// in-flight, if snapshotted early) tree.
type TreeSnapshot struct {
	Trace   string         `json:"trace"`
	Process string         `json:"process"`
	Start   time.Time      `json:"start"`
	Spans   []SpanSnapshot `json:"spans"`
	Dropped int            `json:"dropped_spans,omitempty"`
}

// Root returns the snapshot's root span (zero value if empty).
func (t TreeSnapshot) Root() SpanSnapshot {
	if len(t.Spans) == 0 {
		return SpanSnapshot{}
	}
	return t.Spans[0]
}

// Snapshot deep-copies the tree under its lock. Spans are ordered by
// start time (stable for equal starts), root first.
func (t *Tree) Snapshot() TreeSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := TreeSnapshot{
		Trace:   t.trace.Hex(),
		Process: t.rec.cfg.Process,
		Start:   t.start,
		Spans:   make([]SpanSnapshot, len(t.spans)),
		Dropped: t.dropped,
	}
	now := time.Now()
	for i, s := range t.spans {
		end := s.end
		if end.IsZero() {
			end = now
		}
		ss := SpanSnapshot{
			ID:    s.id.Hex(),
			Kind:  s.kind,
			Name:  s.name,
			Start: s.start,
			DurUS: float64(end.Sub(s.start)) / float64(time.Microsecond),
			Err:   s.err,
			VMCut: int(s.vmCut.Load()),
		}
		if !s.parent.IsZero() {
			ss.Parent = s.parent.Hex()
		}
		if len(s.attrs) > 0 {
			ss.Attrs = append([]Attr(nil), s.attrs...)
		}
		if len(s.vm) > 0 {
			ss.VM = append([]VMSpan(nil), s.vm...)
		}
		snap.Spans[i] = ss
	}
	if len(snap.Spans) > 1 {
		rest := snap.Spans[1:]
		sort.SliceStable(rest, func(i, j int) bool { return rest[i].Start.Before(rest[j].Start) })
	}
	return snap
}
