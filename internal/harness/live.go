package harness

import (
	"sync"
	"sync/atomic"
	"time"

	"metajit/internal/core"
	"metajit/internal/cpu"
	"metajit/internal/mtjit"
)

// LiveTracker publishes point-in-time snapshots of in-flight
// simulations so a daemon can expose them over HTTP while the run is
// still executing. The design keeps the simulation loop free of locks
// and the readers free of races: all mutable state lives on the run
// goroutine (the tracker rides the machine's annotation stream, which
// only that goroutine produces), and every published snapshot is an
// immutable value swapped in through an atomic pointer. HTTP handlers
// only ever load the pointer.
//
// Attaching a tracker does not perturb the simulation: snapshots read
// the machine's counters, never write, and nothing is emitted into the
// simulated instruction stream — a tracked run is bit-identical to an
// untracked one.
type LiveTracker struct {
	every uint64 // publish a snapshot every N annotations

	mu     sync.Mutex
	seq    uint64
	runs   map[uint64]*LiveRun
	order  []uint64 // insertion order, for pruning
	keep   int      // finished runs retained
	active int
}

// DefaultLiveInterval is the publish cadence in machine annotations.
const DefaultLiveInterval = 1 << 12

// NewLiveTracker returns a tracker that republishes each run's snapshot
// every `every` annotations (<= 0: DefaultLiveInterval).
func NewLiveTracker(every int) *LiveTracker {
	if every <= 0 {
		every = DefaultLiveInterval
	}
	return &LiveTracker{
		every: uint64(every),
		runs:  map[uint64]*LiveRun{},
		keep:  32,
	}
}

// LiveRun is one tracked simulation. The exported fields are fixed at
// begin; the snapshot evolves until the run ends.
type LiveRun struct {
	ID      uint64    `json:"id"`
	Bench   string    `json:"bench"`
	VM      VMKind    `json:"vm"`
	Started time.Time `json:"started"`

	tracker *LiveTracker
	m       *cpu.Machine
	eng     *mtjit.Engine

	ticks  uint64
	pubSeq uint64
	work   [core.NumPhases]uint64
	ended  bool

	snap atomic.Pointer[LiveSnapshot]
}

// LiveSnapshot is one immutable point-in-time view of a run.
type LiveSnapshot struct {
	Seq       uint64      `json:"seq"`
	Done      bool        `json:"done"`
	Instrs    uint64      `json:"instrs"`
	Cycles    float64     `json:"cycles"`
	Bytecodes uint64      `json:"bytecodes"`
	Phases    []LivePhase `json:"phases"`
	Traces    []LiveTrace `json:"traces,omitempty"`
	Code      []LiveCode  `json:"code,omitempty"`
}

// LivePhase is one phase's live counters. Work is the guest bytecodes
// retired while the machine was in this phase — the layer-independent
// work measure of Section IV, so Work/Bytecodes is the tier's share of
// guest progress (the Figure 10 warmup quantity, read mid-run).
type LivePhase struct {
	Phase  string  `json:"phase"`
	Instrs uint64  `json:"instrs"`
	Cycles float64 `json:"cycles"`
	IPC    float64 `json:"ipc"`
	Work   uint64  `json:"work,omitempty"`
}

// LiveTrace is one compiled trace or bridge in the live inventory.
type LiveTrace struct {
	ID          uint32 `json:"id"`
	Kind        string `json:"kind"` // "loop" or "bridge"
	Label       string `json:"label"`
	Execs       uint64 `json:"execs"`
	Ops         int    `json:"ops"`
	AsmLen      int    `json:"asm_len"`
	Invalidated bool   `json:"invalidated,omitempty"`
}

// LiveCode is one lower-tier (baseline or method) compilation in the
// live inventory, in install order across tiers.
type LiveCode struct {
	Tier        string `json:"tier"` // "baseline" or "method"
	ID          uint32 `json:"id"`   // unique within the tier
	Label       string `json:"label"`
	Enters      uint64 `json:"enters"`
	Deopts      uint64 `json:"deopts"`
	Ops         int    `json:"ops"`
	AsmLen      int    `json:"asm_len"`
	Invalidated bool   `json:"invalidated,omitempty"`
}

// begin registers a run and returns its handle; nil-safe (a nil tracker
// returns a nil handle whose methods no-op), so Run can call it
// unconditionally.
func (t *LiveTracker) begin(bench string, kind VMKind, m *cpu.Machine) *LiveRun {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.seq++
	lr := &LiveRun{
		ID:      t.seq,
		Bench:   bench,
		VM:      kind,
		Started: time.Now(),
		tracker: t,
		m:       m,
	}
	t.runs[lr.ID] = lr
	t.order = append(t.order, lr.ID)
	t.active++
	t.mu.Unlock()
	lr.publish(false)
	return lr
}

// attach registers the run as a machine observer. Call after
// pintool.NewPhaseTracker so dispatch ticks see the post-switch phase.
func (lr *LiveRun) attach() {
	if lr == nil {
		return
	}
	lr.m.Observe(lr)
}

// setEngine hands the run its JIT engine once it exists (nil without a
// JIT); the trace and lower-tier code inventories appear in snapshots
// from the next publish on.
func (lr *LiveRun) setEngine(eng *mtjit.Engine) {
	if lr == nil {
		return
	}
	lr.eng = eng
}

// OnAnnotation implements core.Observer on the run goroutine: it
// attributes dispatch work to the current phase and republishes the
// snapshot every tracker.every annotations.
func (lr *LiveRun) OnAnnotation(a core.Annotation, instrs, cycles uint64) {
	if a.Tag == core.TagDispatch {
		lr.work[lr.m.Phase()] += a.Arg
	}
	lr.ticks++
	if lr.ticks >= lr.tracker.every {
		lr.ticks = 0
		lr.publish(false)
	}
}

// end publishes the final snapshot and retires the run; idempotent and
// nil-safe, so Run can defer it on every path including errors.
func (lr *LiveRun) end() {
	if lr == nil || lr.ended {
		return
	}
	lr.ended = true
	lr.publish(true)
	// The tracker retains finished runs for their last snapshot only;
	// holding the machine and the engine would pin the whole simulation.
	lr.m, lr.eng = nil, nil
	t := lr.tracker
	t.mu.Lock()
	t.active--
	t.prune()
	t.mu.Unlock()
}

// prune drops the oldest finished runs beyond the retention cap; the
// caller holds t.mu.
func (t *LiveTracker) prune() {
	finished := len(t.order) - t.active
	for i := 0; finished > t.keep && i < len(t.order); {
		id := t.order[i]
		if r := t.runs[id]; r != nil && r.ended {
			delete(t.runs, id)
			t.order = append(t.order[:i], t.order[i+1:]...)
			finished--
			continue
		}
		i++
	}
}

// publish builds an immutable snapshot from the machine's counters and
// the engine's record of compiled code and swaps it in. Runs on the
// simulation goroutine only.
func (lr *LiveRun) publish(done bool) {
	lr.pubSeq++
	snap := &LiveSnapshot{
		Seq:  lr.pubSeq,
		Done: done,
	}
	snap.Phases = make([]LivePhase, 0, core.NumPhases)
	for _, ph := range core.AllPhases() {
		c := lr.m.PhaseCounters(ph)
		lp := LivePhase{
			Phase:  ph.String(),
			Instrs: c.Instrs,
			Cycles: c.Cycles,
			Work:   lr.work[ph],
		}
		if c.Cycles > 0 {
			lp.IPC = float64(c.Instrs) / c.Cycles
		}
		snap.Phases = append(snap.Phases, lp)
		snap.Bytecodes += lr.work[ph]
	}
	snap.Instrs, snap.Cycles = lr.m.TotalInstrs(), lr.m.TotalCycles()
	if lr.eng != nil {
		traces := lr.eng.Traces()
		snap.Traces = make([]LiveTrace, 0, len(traces))
		for _, t := range traces {
			snap.Traces = append(snap.Traces, LiveTrace{
				ID:          t.ID,
				Kind:        t.Kind(),
				Label:       t.Label(),
				Execs:       t.ExecCount,
				Ops:         len(t.Ops),
				AsmLen:      t.AsmLen,
				Invalidated: t.Invalidated,
			})
		}
		st := lr.eng.Stats()
		snap.Code = make([]LiveCode, 0, st.BaselinesCompiled+st.MethodsCompiled)
		lr.eng.TierCodes(func(c *mtjit.TierCode) {
			snap.Code = append(snap.Code, LiveCode{
				Tier:        c.Tier.String(),
				ID:          c.ID,
				Label:       c.Label(),
				Enters:      c.EnterCount,
				Deopts:      c.DeoptCount,
				Ops:         len(c.Ops),
				AsmLen:      c.AsmLen,
				Invalidated: c.Invalidated,
			})
		})
	}
	lr.snap.Store(snap)
}

// Snapshot returns the run's latest published snapshot.
func (lr *LiveRun) Snapshot() *LiveSnapshot { return lr.snap.Load() }

// LiveRunStatus pairs a run's identity with its latest snapshot.
type LiveRunStatus struct {
	ID      uint64        `json:"id"`
	Bench   string        `json:"bench"`
	VM      VMKind        `json:"vm"`
	Started time.Time     `json:"started"`
	Snap    *LiveSnapshot `json:"snap"`
}

// Status lists tracked runs in start order: every in-flight run plus
// the retained tail of finished ones.
func (t *LiveTracker) Status() []LiveRunStatus {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]LiveRunStatus, 0, len(t.order))
	for _, id := range t.order {
		lr := t.runs[id]
		if lr == nil {
			continue
		}
		out = append(out, LiveRunStatus{
			ID:      lr.ID,
			Bench:   lr.Bench,
			VM:      lr.VM,
			Started: lr.Started,
			Snap:    lr.Snapshot(),
		})
	}
	return out
}

// Run returns one tracked run's status by ID.
func (t *LiveTracker) Run(id uint64) (LiveRunStatus, bool) {
	if t == nil {
		return LiveRunStatus{}, false
	}
	t.mu.Lock()
	lr := t.runs[id]
	t.mu.Unlock()
	if lr == nil {
		return LiveRunStatus{}, false
	}
	return LiveRunStatus{
		ID:      lr.ID,
		Bench:   lr.Bench,
		VM:      lr.VM,
		Started: lr.Started,
		Snap:    lr.Snapshot(),
	}, true
}

// Active returns how many tracked runs are currently in flight.
func (t *LiveTracker) Active() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.active
}
