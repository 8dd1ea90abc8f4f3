package harness

import (
	"strings"
	"testing"

	"metajit/internal/bench"
	"metajit/internal/core"
	"metajit/internal/cpu"
	"metajit/internal/heap"
	"metajit/internal/reqtrace"
	"metajit/internal/telemetry"
)

// TestReqTraceLinksPhaseSpans runs one benchmark with a request span
// attached and checks (a) the run's phase spans land on the span in
// simulated microseconds, and (b) the traced Result is byte-identical
// to an untraced one — tracing must observe, never perturb.
func TestReqTraceLinksPhaseSpans(t *testing.T) {
	p := bench.ByName("telco")

	// Run directly, not through the memo runner: ReqTrace is a sink, not
	// part of the Spec, so a cached read would never execute and never
	// produce spans. That mirrors production: the
	// worker only attaches a span on the fresh-simulate path.
	plain, err := Run(p, VMPyPyTiered, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// A roomy VM-span cap: the assertions below want the complete phase
	// stream (the default cap keeps captures bounded in production and
	// is tested in the reqtrace package).
	rec := reqtrace.NewRecorder(reqtrace.Config{Process: "harness-test", MaxVMSpans: 1 << 20})
	root := rec.StartTrace(reqtrace.Context{}, reqtrace.KindRun, "telco")
	sim := root.StartChild(reqtrace.KindSimulate, "telco/pypy-tiered")
	traced, err := Run(p, VMPyPyTiered, Options{ReqTrace: sim})
	if err != nil {
		t.Fatal(err)
	}
	sim.End()
	root.End()

	if plain.Checksum != traced.Checksum ||
		plain.HeapChecksum != traced.HeapChecksum ||
		plain.Instrs != traced.Instrs ||
		plain.Cycles != traced.Cycles ||
		plain.GC != traced.GC {
		t.Fatalf("request tracing perturbed the run:\nplain:  %+v\ntraced: %+v", plain, traced)
	}

	snap := rec.Trees(1)[0]
	if len(snap.Spans) != 2 {
		t.Fatalf("tree has %d spans, want 2", len(snap.Spans))
	}
	vm := snap.Spans[1].VM
	if len(vm) == 0 {
		t.Fatal("simulate span captured no VM phase spans")
	}
	// The last delivered span is the interp root covering the whole run.
	last := vm[len(vm)-1]
	if last.Phase != "interp" || last.Depth != 0 {
		t.Fatalf("final VM span is not the interp root: %+v", last)
	}
	wantUS := plain.Cycles * 1e6 / 3e9 // default clock is 3 GHz
	if got := last.StartUS + last.DurUS; got < wantUS*0.99 || got > wantUS*1.01 {
		t.Fatalf("root span ends at %.1fus, want ~%.1fus", got, wantUS)
	}
	// A tiered telco run exercises compilation: some non-interp phase
	// must appear, with work attributed to it.
	phases := map[string]bool{}
	var attributed uint64
	for _, v := range vm {
		phases[v.Phase] = true
		attributed += v.Instrs
	}
	if len(phases) < 2 {
		t.Fatalf("only phases %v captured", phases)
	}
	if attributed != plain.Instrs {
		t.Fatalf("self instrs sum to %d, want the run's %d", attributed, plain.Instrs)
	}

	// Nobody asked for a profile, so the Result must not carry one: in a
	// worker it goes into the memo cache, where a profiler would pin the
	// machine, the guest heap and the JIT log for the life of the process.
	if traced.Profile != nil {
		t.Fatal("ReqTrace-only run leaked its profiler into Result.Profile")
	}
	recorded, err := Run(p, VMPyPyJIT, Options{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	tp := bench.FromTrace(recorded.Trace)
	replaySpan := rec.StartTrace(reqtrace.Context{}, reqtrace.KindSimulate, "telco/replay-alloc")
	replayed, err := Run(&tp, VMPyPyJIT, Options{ReplayAlloc: true, ReqTrace: replaySpan})
	if err != nil {
		t.Fatal(err)
	}
	replaySpan.End()
	if replayed.Profile != nil {
		t.Fatal("ReqTrace-only alloc replay leaked its profiler into Result.Profile")
	}
	if vm := rec.Trees(1)[0].Root().VM; len(vm) == 0 || vm[len(vm)-1].Depth != 0 {
		t.Fatalf("alloc replay delivered no interp root to its request span: %+v", vm)
	}
}

// TestReqTraceSurfacesProfilerErrors: on the serving path nothing reads
// Profiler.Err, so a violation found while serving must land on the
// simulate span and in the profile_* telemetry. The violation is forced
// through a hand-driven machine: a dispatch tick retired inside a GC
// span, which the grammar forbids.
func TestReqTraceSurfacesProfilerErrors(t *testing.T) {
	reg := telemetry.NewRegistry()
	InstallTelemetry(reg)
	defer InstallTelemetry(nil)

	rec := reqtrace.NewRecorder(reqtrace.Config{Process: "harness-test"})
	sim := rec.StartTrace(reqtrace.Context{}, reqtrace.KindSimulate, "forced/violation")
	p := &bench.Program{Name: "forced"}
	spec, obs := Options{ReqTrace: sim}.split(p, VMCPython)
	mach := cpu.New(spec.Params)
	r := &run{p: p, spec: spec, obs: obs, mach: mach}
	if err := r.attach(); err != nil {
		t.Fatal(err)
	}
	r.setHeap(heap.New(mach, spec.Heap))
	mach.Annot(core.TagDispatch, 0)
	mach.Annot(core.TagGCMinorStart, core.GCReasonAlloc)
	mach.Annot(core.TagDispatch, 0) // the violation
	mach.Annot(core.TagGCMinorEnd, 0)
	res := &Result{}
	if err := r.finish(res); err != nil {
		t.Fatal(err)
	}
	sim.End()
	if res.Profile != nil {
		t.Fatal("ReqTrace-only profiling set Result.Profile")
	}

	var got string
	for _, a := range rec.Trees(1)[0].Root().Attrs {
		if a.Key == "profile_err" {
			got = a.Value
		}
	}
	if !strings.Contains(got, "dispatch event in phase gc") {
		t.Fatalf("simulate span carries profile_err=%q, want the dispatch-in-gc violation", got)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if f := fams["profile_errors_total"]; f == nil || f.Samples[0].Value != 1 {
		t.Fatalf("profile_errors_total = %+v, want 1", f)
	}
	if f := fams["profile_events_total"]; f == nil || f.Samples[0].Value != 4 {
		t.Fatalf("profile_events_total = %+v, want every annotation (4), stamped or not", f)
	}
}

// TestReqTraceNoProfilerWithoutSpan guards the default path: without
// ReqTrace/Profile/ProfileDir no profiler attaches (Result.Profile nil).
func TestReqTraceNoProfilerWithoutSpan(t *testing.T) {
	r := mustRun(t, bench.ByName("telco"), VMPyPyTiered, Options{})
	if r.Profile != nil {
		t.Fatal("profiler attached to an untraced, unprofiled run")
	}
}
