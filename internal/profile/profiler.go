package profile

import (
	"fmt"

	"metajit/internal/core"
	"metajit/internal/cpu"
)

// Profiler binds a Stream to a live cpu.Machine: it intercepts
// annotations like a pintool, stamps them with the machine state, and
// feeds them through the Stream consumer as they retire.
//
// Exactness contract. Every counter the profiler reads is an integer,
// cycles included (the machine's units), so per-span and per-window
// deltas sum to the machine's totals exactly in any grouping. The
// profiler also keeps a snapshot of every phase's counters and verifies
// change locality: between barriers, only the phase believed active may
// advance (any other change is a detected accounting bug). A barrier
// re-snapshots the phase being left and compares the phase being
// entered with its snapshot, and Finish compares every phase, so every
// field of every phase is verified at a cost per barrier that does not
// grow with the number of phases; a violation is reported when the
// phase it touched is next entered, or at Finish. Per-phase instruction
// totals are accumulated independently and cross-checked against the
// machine by the difftest CheckProfile invariant.
//
// Attach the profiler AFTER pintool.NewPhaseTracker: observers run in
// registration order, and the profiler asserts at each barrier that the
// machine's phase (as switched by the tracker) agrees with its own span
// stack.
type Profiler struct {
	m      *cpu.Machine
	Stream *Stream

	active core.Phase
	cur    *cpu.Domain // live counters of the active phase
	base   State       // the active phase's projection at the last barrier

	snaps         [core.NumPhases]cpu.Domain
	initial       [core.NumPhases]cpu.Domain
	instrsByPhase [core.NumPhases]uint64
	barrierTotal  State

	errs     []error
	errCount int
	finished bool
}

// Attach registers a profiler on the machine. The machine's current
// phase must already be tracked (PhaseTracker attached first).
func Attach(m *cpu.Machine, cfg Config) *Profiler {
	p := &Profiler{
		m:      m,
		Stream: NewStream(cfg),
	}
	for ph := core.Phase(0); ph < core.NumPhases; ph++ {
		p.snaps[ph] = *m.PhaseView(ph)
		p.barrierTotal.Add(StateOf(&p.snaps[ph]))
	}
	p.initial = p.snaps
	p.activate()
	p.Stream.start(p.barrierTotal)
	m.Observe(p)
	return p
}

// activate points the stamping path at the machine's current phase.
func (p *Profiler) activate() {
	p.active = p.m.Phase()
	p.cur = p.m.PhaseView(p.active)
	p.base = StateOf(&p.snaps[p.active])
}

func (p *Profiler) errorf(format string, args ...any) {
	p.errCount++
	if len(p.errs) < maxErrs {
		p.errs = append(p.errs, fmt.Errorf(format, args...))
	}
}

// stamp writes the current machine state into st: the last barrier
// total plus the active phase's advance since then, read in place from
// the machine. Between barriers only the active phase's counters change
// (verified at the next barrier), so this is both cheap — a dozen
// loads, no Counters copy — and consistent with the barrier totals the
// stream's deltas are computed against.
func (p *Profiler) stamp(st *State) {
	c, b, t := p.cur, &p.base, &p.barrierTotal
	st.Instrs = p.instrs()
	st.Units = t.Units + (c.Units - b.Units)
	st.Branches = t.Branches + (c.CondBr + c.IndBr + c.Returns - b.Branches)
	st.Mispredicts = t.Mispredicts + (c.CondMiss + c.IndMiss + c.RetMiss - b.Mispredicts)
	st.Accesses = t.Accesses + (c.Loads + c.Stores - b.Accesses)
	st.L1Miss = t.L1Miss + (c.L1Miss - b.L1Miss)
	st.L2Miss = t.L2Miss + (c.L2Miss - b.L2Miss)
}

// instrs is the Instrs field of the stamp, all a dispatch tick needs.
func (p *Profiler) instrs() uint64 {
	return p.barrierTotal.Instrs + (p.cur.Instrs - p.base.Instrs)
}

// OnAnnotation implements core.Observer. The annotation nop retires
// into the pre-switch phase before observers run, so the stamped state
// includes the nop and a transition's stamp is exactly at the phase
// boundary, where the barrier bookkeeping runs. A dispatch tick is
// stamped only when the stream's series asks for it (Stream.tick).
func (p *Profiler) OnAnnotation(a core.Annotation, _, _ uint64) {
	if p.finished {
		return
	}
	if a.Tag == core.TagDispatch && !p.Stream.tick(p.instrs()) {
		return
	}
	ev := Event{Tag: a.Tag, Arg: a.Arg}
	p.stamp(&ev.State)
	p.Stream.consume(&ev)
	if core.Rule(a.Tag).Transition() {
		p.barrier(&ev.State)
	}
}

// barrier re-snapshots the phase being left, folding its instruction
// advance into the independent per-phase sums, verifies the phase being
// entered against its snapshot, and re-bases the total on the event
// that crossed the boundary.
func (p *Profiler) barrier(st *State) {
	left := p.active
	p.resnap(left)
	p.barrierTotal = *st
	p.activate()
	p.verify(p.active, left)
	if sp := p.Stream.CurrentPhase(); sp != p.active && p.Stream.errCount == 0 {
		p.errorf("machine phase %s disagrees with span stack phase %s", p.active, sp)
	}
}

// verify checks that a phase's counters still equal its snapshot, taken
// when it was last left: every field, since any change means something
// retired into the phase while it was not active. A violation is
// reported against the phase active when it is found (while), and the
// change is folded in so the totals keep matching the machine.
func (p *Profiler) verify(ph, while core.Phase) {
	if *p.m.PhaseView(ph) != p.snaps[ph] {
		p.errorf("phase %s counters changed while %s was active", ph, while)
		p.resnap(ph)
	}
}

// resnap folds a phase's instruction advance since its snapshot into the
// per-phase sums and snapshots its counters again.
func (p *Profiler) resnap(ph core.Phase) {
	c := p.m.PhaseView(ph)
	p.instrsByPhase[ph] += c.Instrs - p.snaps[ph].Instrs
	p.snaps[ph] = *c
}

// Finish verifies every inactive phase, runs a final barrier and
// finalizes the stream (closing exports). Further annotations are
// ignored.
func (p *Profiler) Finish() {
	if p.finished {
		return
	}
	var st State
	p.stamp(&st)
	for ph := core.Phase(0); ph < core.NumPhases; ph++ {
		if ph != p.active {
			p.verify(ph, p.active)
		}
	}
	p.barrier(&st)
	p.Stream.Finish(st)
	p.finished = true
	// Nothing below reads the machine again: totals and errors are the
	// profiler's own copies. A finished profiler that a Result keeps must
	// not pin the simulation it watched.
	p.m, p.cur = nil, nil
}

// PhaseTotals returns per-phase counters attributed over the profiled
// interval: the machine's own snapshots with the instruction field
// replaced by the profiler's independently accumulated sums. Comparing
// against Machine.PhaseCounters is therefore a real cross-check, not an
// identity. Valid after Finish.
func (p *Profiler) PhaseTotals() [core.NumPhases]cpu.Counters {
	var out [core.NumPhases]cpu.Counters
	for ph := range out {
		out[ph] = p.snaps[ph].Read()
		out[ph].Instrs = p.initial[ph].Instrs + p.instrsByPhase[ph]
	}
	return out
}

// Err summarizes profiler-level errors (locality or phase-agreement
// violations) and stream well-formedness errors; nil when clean.
func (p *Profiler) Err() error {
	if p.errCount > 0 {
		if p.errCount == 1 {
			return p.errs[0]
		}
		return fmt.Errorf("%d profiler errors, first: %w", p.errCount, p.errs[0])
	}
	return p.Stream.Err()
}

// ErrorCount returns every error the run found, profiler-level and
// stream well-formedness alike, including those Errors does not retain.
func (p *Profiler) ErrorCount() int { return p.errCount + p.Stream.errCount }

// Errors returns retained profiler-level error details.
func (p *Profiler) Errors() []error { return p.errs }
