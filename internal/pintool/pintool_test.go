package pintool

import (
	"testing"

	"metajit/internal/core"
	"metajit/internal/cpu"
	"metajit/internal/isa"
)

func TestPhaseTrackerNesting(t *testing.T) {
	m := cpu.NewDefault()
	tr := NewPhaseTracker(m)

	emit := func(tag core.Tag, n int) {
		m.Annot(tag, 0)
		m.Ops(isa.ALU, n)
	}
	m.Ops(isa.ALU, 100) // interp
	emit(core.TagJITEnter, 50)
	if tr.Current() != core.PhaseJIT {
		t.Fatalf("phase = %v after JITEnter", tr.Current())
	}
	// GC interrupts JIT; after it ends we must be back in JIT.
	emit(core.TagGCMinorStart, 30)
	if tr.Current() != core.PhaseGC {
		t.Fatalf("phase = %v during GC", tr.Current())
	}
	emit(core.TagGCMinorEnd, 0)
	if tr.Current() != core.PhaseJIT {
		t.Fatalf("phase = %v after GC end (stack broken)", tr.Current())
	}
	emit(core.TagAOTCallEnter, 40)
	emit(core.TagAOTCallLeave, 20)
	emit(core.TagJITLeave, 0)
	if tr.Current() != core.PhaseInterp {
		t.Fatalf("phase = %v after JITLeave", tr.Current())
	}

	if got := m.PhaseCounters(core.PhaseGC).Instrs; got < 30 {
		t.Errorf("GC instrs = %d", got)
	}
	if got := m.PhaseCounters(core.PhaseJITCall).Instrs; got < 40 {
		t.Errorf("JITCall instrs = %d", got)
	}
	if tr.Transitions == 0 {
		t.Errorf("no transitions recorded")
	}
}

func TestPhaseTrackerUnderflowSafe(t *testing.T) {
	m := cpu.NewDefault()
	tr := NewPhaseTracker(m)
	// A stray leave must not panic and must land in interp.
	m.Annot(core.TagJITLeave, 0)
	if tr.Current() != core.PhaseInterp {
		t.Fatalf("phase = %v after stray pop", tr.Current())
	}
}

func TestWorkMeterCountsAndSamples(t *testing.T) {
	m := cpu.NewDefault()
	w := NewWorkMeter(m, 1000)
	for i := 0; i < 100; i++ {
		m.Ops(isa.ALU, 50)
		m.Annot(core.TagDispatch, 3)
	}
	if w.Bytecodes != 300 {
		t.Fatalf("bytecodes = %d, want 300", w.Bytecodes)
	}
	if len(w.Samples) < 3 {
		t.Fatalf("samples = %d; sampling broken", len(w.Samples))
	}
	for i := 1; i < len(w.Samples); i++ {
		if w.Samples[i].Instrs <= w.Samples[i-1].Instrs {
			t.Errorf("samples not monotonic")
		}
		if w.Samples[i].Bytecodes < w.Samples[i-1].Bytecodes {
			t.Errorf("bytecode counts not monotonic")
		}
	}
}

func TestWorkMeterNoSampling(t *testing.T) {
	m := cpu.NewDefault()
	w := NewWorkMeter(m, 0)
	m.Annot(core.TagDispatch, 1)
	if len(w.Samples) != 0 {
		t.Errorf("interval 0 must not sample")
	}
	if w.Bytecodes != 1 {
		t.Errorf("bytecodes = %d", w.Bytecodes)
	}
}

func TestAOTAttributorNestedCalls(t *testing.T) {
	m := cpu.NewDefault()
	a := NewAOTAttributor(m)
	m.Annot(core.TagAOTCallEnter, 7)
	m.Ops(isa.ALU, 1000)
	// Nested call: time attributes to the OUTER entry point (fn 7), as
	// in the paper's Table III methodology.
	m.Annot(core.TagAOTCallEnter, 9)
	m.Ops(isa.ALU, 2000)
	m.Annot(core.TagAOTCallLeave, 9)
	m.Annot(core.TagAOTCallLeave, 7)

	if a.CallsByFunc[7] != 1 {
		t.Errorf("outer calls = %d", a.CallsByFunc[7])
	}
	if a.CallsByFunc[9] != 0 {
		t.Errorf("nested call counted separately: %d", a.CallsByFunc[9])
	}
	if a.CyclesByFunc[7] <= 0 {
		t.Errorf("no cycles attributed to outer")
	}
	if a.CyclesByFunc[9] != 0 {
		t.Errorf("cycles attributed to nested entry")
	}
}

func TestTraceEventCounter(t *testing.T) {
	m := cpu.NewDefault()
	c := NewTraceEventCounter(m)
	m.Annot(core.TagTraceCompiled, 1)
	m.Annot(core.TagGuardFail, 5)
	m.Annot(core.TagGuardFail, 5)
	m.Annot(core.TagBridgeEnter, 2)
	m.Annot(core.TagBlackholeEnter, 5)
	m.Annot(core.TagGCMinorStart, 0)
	m.Annot(core.TagGCMajorStart, 0)
	m.Annot(core.TagTraceAbort, 1)
	if c.Compiled != 1 || c.GuardFails != 2 || c.BridgeEnters != 1 ||
		c.Deopts != 1 || c.MinorGCs != 1 || c.MajorGCs != 1 || c.Aborts != 1 {
		t.Errorf("counter state wrong: %+v", c)
	}
}

// TestToolsRegisterForEveryTagTheyRead: each tool registers with the
// machine for a tag list that must cover the switch in its OnAnnotation.
// Every built-in tag goes to one machine where the tools are attached as
// shipped and to one where the same tool values are registered for every
// annotation; a tag missing from a list shows as a difference.
func TestToolsRegisterForEveryTagTheyRead(t *testing.T) {
	routed, all := cpu.NewDefault(), cpu.NewDefault()
	pt, wm, at, ec := NewPhaseTracker(routed), NewWorkMeter(routed, 0), NewAOTAttributor(routed), NewTraceEventCounter(routed)

	pt2 := &PhaseTracker{m: all, cur: core.PhaseInterp}
	wm2 := &WorkMeter{m: all}
	at2 := &AOTAttributor{CyclesByFunc: map[uint32]float64{}, CallsByFunc: map[uint32]uint64{}}
	all.Observe(pt2)
	all.Observe(wm2)
	all.Observe(at2)
	// The event counter is a closure: a second one on a routed machine,
	// compared with a tally of what a catch-all observer sees it count.
	seen := map[core.Tag]uint64{}
	all.Observe(core.ObserverFunc(func(a core.Annotation, _, _ uint64) { seen[a.Tag]++ }))

	for round := 0; round < 3; round++ {
		for tag := core.Tag(1); int(tag) < core.NumBuiltinTags; tag++ {
			routed.Annot(tag, 3)
			all.Annot(tag, 3)
			if pt.Current() != pt2.Current() {
				t.Fatalf("after %s: phase %v routed, %v unrouted", core.TagName(tag), pt.Current(), pt2.Current())
			}
		}
	}
	if pt.Transitions != pt2.Transitions || pt.Transitions == 0 {
		t.Errorf("phase transitions: %d routed, %d unrouted", pt.Transitions, pt2.Transitions)
	}
	if wm.Bytecodes != wm2.Bytecodes || wm.Bytecodes != 9 {
		t.Errorf("bytecodes: %d routed, %d unrouted, want 9", wm.Bytecodes, wm2.Bytecodes)
	}
	if at.CallsByFunc[3] != at2.CallsByFunc[3] || at.CallsByFunc[3] != 3 {
		t.Errorf("AOT calls: %d routed, %d unrouted, want 3", at.CallsByFunc[3], at2.CallsByFunc[3])
	}
	want := TraceEventCounter{
		Compiled: seen[core.TagTraceCompiled], Aborts: seen[core.TagTraceAbort],
		GuardFails: seen[core.TagGuardFail], BridgeEnters: seen[core.TagBridgeEnter],
		MinorGCs: seen[core.TagGCMinorStart], MajorGCs: seen[core.TagGCMajorStart], Deopts: seen[core.TagBlackholeEnter],
		BaselineCompiles: seen[core.TagBaselineCompileEnd], BaselineEnters: seen[core.TagBaselineEnter], BaselineDeopts: seen[core.TagBaselineDeopt],
		MethodCompiles: seen[core.TagMethodCompileEnd], MethodEnters: seen[core.TagMethodEnter], MethodDeopts: seen[core.TagMethodDeopt],
	}
	if *ec != want || ec.Compiled != 3 {
		t.Errorf("event counter on the routed machine: %+v, want %+v", *ec, want)
	}
}
