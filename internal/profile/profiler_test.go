package profile

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"metajit/internal/bench"
	"metajit/internal/core"
	"metajit/internal/cpu"
	"metajit/internal/heap"
	"metajit/internal/jitlog"
	"metajit/internal/mtjit"
	"metajit/internal/pintool"
	"metajit/internal/pylang"
)

// refObserver is the reference consumer the coalescing Profiler is held
// to: every annotation — dispatch ticks included — is stamped from
// by-value counter reads and fed to Stream.Consume, which is also what
// FuzzAnnotStream drives. The stamp uses the Profiler's formula (last
// barrier total plus the active phase's advance), so the two paths see
// bit-identical states wherever both stamp.
type refObserver struct {
	m      *cpu.Machine
	s      *Stream
	active core.Phase
	snaps  [core.NumPhases]cpu.Counters
	total  State
}

func attachRef(m *cpu.Machine, cfg Config) *refObserver {
	r := &refObserver{m: m, s: NewStream(cfg), active: m.Phase()}
	for ph := range r.snaps {
		r.snaps[ph] = m.PhaseCounters(core.Phase(ph))
		r.total.Add(StateOf(&r.snaps[ph]))
	}
	r.s.start(r.total)
	m.Observe(r)
	return r
}

func (r *refObserver) now() State {
	cur := r.m.PhaseCounters(r.active)
	st := r.total
	st.Add(StateOf(&cur).Sub(StateOf(&r.snaps[r.active])))
	return st
}

func (r *refObserver) OnAnnotation(a core.Annotation, _, _ uint64) {
	st := r.now()
	r.s.Consume(Event{Tag: a.Tag, Arg: a.Arg, State: st})
	if core.Rule(a.Tag).Transition() {
		for ph := range r.snaps {
			r.snaps[ph] = r.m.PhaseCounters(core.Phase(ph))
		}
		r.total = st
		r.active = r.m.Phase()
	}
}

// tagCounter counts the annotation stream by kind.
type tagCounter struct{ ticks, others uint64 }

func (c *tagCounter) OnAnnotation(a core.Annotation, _, _ uint64) {
	if a.Tag == core.TagDispatch {
		c.ticks++
	} else {
		c.others++
	}
}

// guestCell is a benchmark cell built by hand, so the test can put its
// own observers on the machine. The configurations and the heap
// geometry are the harness's for the VM kinds named.
type guestCell struct {
	name  string
	bench string
	cfg   pylang.Config
}

var guestCells = []guestCell{
	{"telco/cpython", "telco", pylang.Config{Profile: mtjit.ReferenceProfile()}},
	{"richards/pypy", "richards", pylang.Config{JIT: true}},
	{"richards/pypy-tiered", "richards", pylang.Config{JIT: true, Baseline: true}},
	{"json_bench/pypy-amalg", "json_bench", pylang.Config{JIT: true, Baseline: true, Method: true}},
}

// run executes the cell on a fresh machine. attach is called after the
// phase tracker is in place and before any guest code, with the label
// resolvers a harness run would use.
func (c guestCell) run(t testing.TB, attach func(m *cpu.Machine, labels Labels)) *cpu.Machine {
	t.Helper()
	mach := cpu.NewDefault()
	pintool.NewPhaseTracker(mach)
	var (
		vm  *pylang.VM
		log *jitlog.Log
	)
	if attach != nil {
		attach(mach, Labels{
			Trace: func(id uint64) string {
				if log == nil {
					return ""
				}
				return log.TraceLabel(id)
			},
			AOTFunc: func(id uint64) string {
				for _, f := range vm.RT.Funcs() {
					if uint64(f.ID) == id {
						return f.Name
					}
				}
				return ""
			},
		})
	}
	cfg := c.cfg
	cfg.HeapConfig = &heap.Config{NurserySize: 32 << 10, MajorThreshold: 384 << 10, MajorGrowth: 1.82}
	vm = pylang.New(mach, cfg)
	if cfg.JIT {
		log = jitlog.Attach(vm.Eng)
	}
	p := bench.ByName(c.bench)
	if err := vm.LoadModule(p.Name, p.Source); err != nil {
		t.Fatal(err)
	}
	vm.RunFunction("main")
	return mach
}

// TestCoalescedMatchesReference runs each cell once with four observers
// on the one annotation stream — the reference consumer and the
// Profiler, each with the interval series off and on — and requires the
// same profile from both.
func TestCoalescedMatchesReference(t *testing.T) {
	for _, c := range guestCells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var (
				counts             tagCounter
				refs               [2]*refObserver
				profs              [2]*Profiler
				refSpans, gotSpans [2][]CompletedSpan
			)
			mach := c.run(t, func(m *cpu.Machine, labels Labels) {
				m.Observe(&counts)
				for i, window := range []uint64{0, 1 << 16} {
					i := i
					refs[i] = attachRef(m, Config{Window: window, Labels: labels,
						SpanSink: func(cs CompletedSpan) { refSpans[i] = append(refSpans[i], cs) }})
					profs[i] = Attach(m, Config{Window: window, Labels: labels,
						SpanSink: func(cs CompletedSpan) { gotSpans[i] = append(gotSpans[i], cs) }})
				}
			})
			if counts.ticks < 1000 {
				t.Fatalf("only %d dispatch ticks: the cell does not exercise coalescing", counts.ticks)
			}
			for i, series := range []string{"series off", "series on"} {
				ref, prof := refs[i], profs[i]
				ref.s.Finish(ref.now())
				prof.Finish()
				if err := ref.s.Err(); err != nil {
					t.Fatalf("%s: reference: %v", series, err)
				}
				if err := prof.Err(); err != nil {
					t.Fatalf("%s: profiler: %v", series, err)
				}
				totals := prof.PhaseTotals()
				for ph := core.Phase(0); ph < core.NumPhases; ph++ {
					if totals[ph] != mach.PhaseCounters(ph) {
						t.Errorf("%s: phase %s totals diverge from the machine", series, ph)
					}
				}
				got := prof.Stream
				if got.Events != ref.s.Events || got.Spans != ref.s.Spans {
					t.Errorf("%s: events/spans %d/%d, reference %d/%d", series, got.Events, got.Spans, ref.s.Events, ref.s.Spans)
				}
				if got.Events != counts.ticks+counts.others {
					t.Errorf("%s: Events = %d, stream carried %d annotations", series, got.Events, counts.ticks+counts.others)
				}
				compareSpans(t, series, gotSpans[i], refSpans[i])
				compareWindows(t, series, got.Windows(), ref.s.Windows())
				for _, export := range []struct {
					name  string
					write func(*Stream, *bytes.Buffer) error
				}{
					{"folded", func(s *Stream, b *bytes.Buffer) error { return s.WriteFolded(b) }},
					{"series", func(s *Stream, b *bytes.Buffer) error { return s.WriteSeries(b) }},
				} {
					var want, have bytes.Buffer
					if err := export.write(ref.s, &want); err != nil {
						t.Fatal(err)
					}
					if err := export.write(got, &have); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(have.Bytes(), want.Bytes()) {
						t.Errorf("%s: %s export differs from the reference (%d vs %d bytes)", series, export.name, have.Len(), want.Len())
					}
				}

				// The cost of looking, as counts: a tick is stamped only to
				// close a series window.
				stampedTicks := got.Stamped - counts.others
				if ref.s.Stamped != ref.s.Events {
					t.Fatalf("%s: reference stamped %d of %d events", series, ref.s.Stamped, ref.s.Events)
				}
				if i == 0 && stampedTicks != 0 {
					t.Errorf("series off: %d of %d dispatch ticks were stamped, want none", stampedTicks, counts.ticks)
				}
				if n := uint64(len(got.Windows())); stampedTicks > n {
					t.Errorf("%s: %d dispatch ticks stamped for %d windows, want at most one each", series, stampedTicks, n)
				}
			}
		})
	}
}

// selfCyclesTol bounds the relative difference allowed in a span's or a
// window's accumulated cycles, the one quantity that is not bit-equal:
// it is a float sum of per-event differences, the reference adds one
// rounded difference per dispatch tick where the profiler adds one per
// stamped event, and issue costs such as 0.35 are not dyadic, so the
// partial sums round differently in their last bits. Everything that is
// a stamp (span start and end) or an integer is compared exactly.
const selfCyclesTol = 1e-9

func cyclesClose(a, b float64) bool {
	return a == b || math.Abs(a-b) <= selfCyclesTol*math.Max(math.Abs(a), math.Abs(b))
}

func compareSpans(t *testing.T, series string, got, want []CompletedSpan) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d completed spans, reference %d", series, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Label != w.Label || g.Phase != w.Phase || g.Depth != w.Depth || g.Start != w.Start || g.End != w.End {
			t.Fatalf("%s: span %d = %+v, reference %+v", series, i, g, w)
		}
		gs, ws := g.Self, w.Self
		if !cyclesClose(gs.Cycles, ws.Cycles) {
			t.Fatalf("%s: span %d (%s) self cycles %v, reference %v", series, i, w.Label, gs.Cycles, ws.Cycles)
		}
		gs.Cycles, ws.Cycles = 0, 0
		if gs != ws {
			t.Fatalf("%s: span %d (%s) self counts %+v, reference %+v", series, i, w.Label, gs, ws)
		}
	}
}

func compareWindows(t *testing.T, series string, got, want []Window) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d windows, reference %d", series, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Start != w.Start || g.End != w.End {
			t.Fatalf("%s: window %d is [%d,%d), reference [%d,%d)", series, i, g.Start, g.End, w.Start, w.End)
		}
		for ph := range w.Phases {
			gp, wp := g.Phases[ph], w.Phases[ph]
			if !cyclesClose(gp.Cycles, wp.Cycles) {
				t.Fatalf("%s: window %d phase %s cycles %v, reference %v", series, i, core.Phase(ph), gp.Cycles, wp.Cycles)
			}
			gp.Cycles, wp.Cycles = 0, 0
			if gp != wp {
				t.Fatalf("%s: window %d phase %s counts %+v, reference %+v", series, i, core.Phase(ph), gp, wp)
			}
		}
	}
}

// TestHotPathDoesNotAllocate: neither a dispatch tick nor a span whose
// stack signature has been seen before may allocate.
func TestHotPathDoesNotAllocate(t *testing.T) {
	mach := cpu.NewDefault()
	pintool.NewPhaseTracker(mach)
	spans := 0
	prof := Attach(mach, Config{Window: 1 << 40, SpanSink: func(CompletedSpan) { spans++ }})
	tick := func() {
		mach.Ops(0, 9)
		mach.Annot(core.TagDispatch, 1)
	}
	span := func() {
		mach.Annot(core.TagJITEnter, 3)
		mach.Ops(0, 20)
		mach.Annot(core.TagAOTCallEnter, 8)
		mach.Annot(core.TagAOTCallLeave, 8)
		mach.Annot(core.TagGuardFail, 5)
		mach.Annot(core.TagBridgeEnter, 4)
		mach.Annot(core.TagJITLeave, 4)
	}
	span() // first sight builds the signature nodes and grows the stack
	if n := testing.AllocsPerRun(200, tick); n != 0 {
		t.Errorf("a dispatch tick allocates %v times", n)
	}
	if n := testing.AllocsPerRun(200, span); n != 0 {
		t.Errorf("re-opening known spans allocates %v times", n)
	}
	prof.Finish()
	if err := prof.Err(); err != nil {
		t.Fatal(err)
	}
	if spans == 0 || prof.Stream.Stamped >= prof.Stream.Events {
		t.Fatalf("driver exercised nothing: %d spans, %d/%d stamped", spans, prof.Stream.Stamped, prof.Stream.Events)
	}
}

// TestAttachedAllocationsScaleWithSignatures bounds what attaching
// costs in host allocations on the cell with the densest span stream:
// a few per distinct stack signature (node, label, signature string,
// child-map growth), none per event.
func TestAttachedAllocationsScaleWithSignatures(t *testing.T) {
	c := guestCells[1] // richards/pypy
	mallocs := func(attach func(*cpu.Machine, Labels)) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.run(t, attach)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	mallocs(nil) // warm lazily initialised runtime and guest tables
	detached := mallocs(nil)
	var prof *Profiler
	spans := 0
	attached := mallocs(func(m *cpu.Machine, labels Labels) {
		prof = Attach(m, Config{Labels: labels, SpanSink: func(CompletedSpan) { spans++ }})
	})
	prof.Finish()
	sigs := uint64(len(prof.Stream.nodes))
	if spans < 100*int(sigs) {
		t.Fatalf("%d spans over %d signatures: the cell does not separate per-span from per-signature cost", spans, sigs)
	}
	if limit := detached + 12*sigs + 64; attached > limit {
		t.Errorf("attached run made %d allocations, detached %d: %d extra for %d signatures and %d spans, limit %d",
			attached, detached, attached-detached, sigs, spans, limit-detached)
	}
}

// TestBarrierReportsNonLocalChange: the exactness contract rests on
// only the active phase advancing between barriers. Retiring into
// another phase behind the profiler's back must be reported at the next
// barrier, and the per-phase totals must still match the machine.
func TestBarrierReportsNonLocalChange(t *testing.T) {
	mach := cpu.NewDefault()
	pintool.NewPhaseTracker(mach)
	prof := Attach(mach, Config{})
	mach.Ops(0, 10)
	mach.SetPhase(core.PhaseGC)
	mach.Store(0x80)
	mach.SetPhase(core.PhaseInterp)
	mach.Annot(core.TagJITEnter, 1)
	mach.Annot(core.TagJITLeave, 1)
	prof.Finish()
	err := prof.Err()
	if err == nil || !strings.Contains(err.Error(), "phase gc counters changed while interp was active") {
		t.Fatalf("non-local change not reported: %v", err)
	}
	totals := prof.PhaseTotals()
	for ph := core.Phase(0); ph < core.NumPhases; ph++ {
		if totals[ph] != mach.PhaseCounters(ph) {
			t.Errorf("phase %s totals diverge from the machine after the violation", ph)
		}
	}
}
