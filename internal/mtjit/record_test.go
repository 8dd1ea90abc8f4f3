package mtjit_test

import (
	"testing"

	"metajit/internal/bench"
	"metajit/internal/core"
	"metajit/internal/cpu"
	"metajit/internal/mtjit"
	"metajit/internal/pylang"
)

// installed is one compile-end annotation: a trace, or a tier's code.
type installed struct {
	trace bool
	tier  mtjit.Tier
	id    uint32
}

// TestEngineRecord holds the engine's record of compiled code — what the
// JIT log, span labels and live views read — on one amalgamated run of
// meteor_contest, which installs loops, bridges, baseline and method
// code, and baseline code after method code: every trace and code object
// is found by its ID, IDs past either end find nothing, and Traces and
// TierCodes walk in the order the engine announced the installs on the
// annotation stream.
func TestEngineRecord(t *testing.T) {
	mach := cpu.NewDefault()
	var order []installed
	mach.Observe(core.ObserverFunc(func(a core.Annotation, _, _ uint64) {
		switch a.Tag {
		case core.TagTraceCompiled:
			order = append(order, installed{trace: true, id: uint32(a.Arg)})
		case core.TagBaselineCompileEnd:
			order = append(order, installed{tier: mtjit.BaselineTier, id: uint32(a.Arg)})
		case core.TagMethodCompileEnd:
			order = append(order, installed{tier: mtjit.MethodTier, id: uint32(a.Arg)})
		}
	}), core.TagTraceCompiled, core.TagBaselineCompileEnd, core.TagMethodCompileEnd)
	vm := pylang.New(mach, pylang.Config{Profile: mtjit.FrameworkProfile(), Engine: &mtjit.Config{
		BaselineThreshold: mtjit.DefaultBaselineThreshold, MethodThreshold: mtjit.DefaultMethodThreshold}})
	p := bench.ByName("meteor_contest")
	if err := vm.LoadModule(p.Name, p.Source); err != nil {
		t.Fatal(err)
	}
	vm.RunFunction("main")
	e := vm.Eng

	st := e.Stats()
	if st.LoopsCompiled == 0 || st.BridgesCompiled == 0 || st.BaselinesCompiled == 0 || st.MethodsCompiled == 0 {
		t.Fatalf("run compiled %d loops, %d bridges, %d baseline and %d method codes; want each kind",
			st.LoopsCompiled, st.BridgesCompiled, st.BaselinesCompiled, st.MethodsCompiled)
	}

	var traceOrder, codeOrder []installed
	for _, in := range order {
		if in.trace {
			traceOrder = append(traceOrder, in)
		} else {
			codeOrder = append(codeOrder, in)
		}
	}

	traces := e.Traces()
	if len(traces) != len(traceOrder) {
		t.Fatalf("%d traces recorded, %d announced", len(traces), len(traceOrder))
	}
	for i, tr := range traces {
		if tr.ID != traceOrder[i].id {
			t.Errorf("trace %d: ID %d, announced %d", i, tr.ID, traceOrder[i].id)
		}
		if got := e.TraceByID(tr.ID); got != tr {
			t.Errorf("TraceByID(%d) = %p, want %p", tr.ID, got, tr)
		}
	}
	if e.TraceByID(0) != nil || e.TraceByID(uint32(len(traces)+1)) != nil || e.TraceByID(^uint32(0)) != nil {
		t.Error("TraceByID found a trace for an ID outside 1..n")
	}

	var codes []*mtjit.TierCode
	e.TierCodes(func(c *mtjit.TierCode) { codes = append(codes, c) })
	if len(codes) != len(codeOrder) {
		t.Fatalf("TierCodes visited %d codes, %d announced", len(codes), len(codeOrder))
	}
	var perTier [mtjit.NumTiers]uint32
	interleaved := false
	for i, c := range codes {
		interleaved = interleaved || c.Tier == mtjit.BaselineTier && perTier[mtjit.MethodTier] > 0
		if c.Tier != codeOrder[i].tier || c.ID != codeOrder[i].id {
			t.Errorf("code %d: %s %d, announced %s %d", i, c.Tier, c.ID, codeOrder[i].tier, codeOrder[i].id)
		}
		if got := e.TierCodeByID(c.Tier, c.ID); got != c {
			t.Errorf("TierCodeByID(%s, %d) = %p, want %p", c.Tier, c.ID, got, c)
		}
		perTier[c.Tier]++
	}
	if !interleaved {
		t.Error("no baseline code installed after method code: the run no longer tests the merge across tiers")
	}
	for tier := mtjit.Tier(0); tier < mtjit.NumTiers; tier++ {
		if e.TierCodeByID(tier, 0) != nil || e.TierCodeByID(tier, perTier[tier]+1) != nil {
			t.Errorf("TierCodeByID(%s) found code for an ID outside 1..%d", tier, perTier[tier])
		}
	}
}

// TestTraceLabel pins the trace label format that span labels, the
// profile goldens and /vm/traces show.
func TestTraceLabel(t *testing.T) {
	for _, tc := range []struct {
		tr   mtjit.Trace
		want string
	}{
		{mtjit.Trace{ID: 3, Key: mtjit.GreenKey{CodeID: 2, PC: 14}}, "loop3@c2:p14"},
		{mtjit.Trace{ID: 7, Key: mtjit.GreenKey{CodeID: 2, PC: 9}, Bridge: true}, "bridge7@c2:p9"},
		{mtjit.Trace{ID: 1, Key: mtjit.GreenKey{CodeID: 1}}, "loop1@c1:p0"},
		{mtjit.Trace{ID: 12, Key: mtjit.GreenKey{CodeID: 40, PC: 1023}, Bridge: true}, "bridge12@c40:p1023"},
	} {
		tr := tc.tr
		if got := tr.Label(); got != tc.want {
			t.Errorf("Label() = %q, want %q", got, tc.want)
		}
		if got := tr.Label(); got != tc.want {
			t.Errorf("second Label() = %q, want %q", got, tc.want)
		}
	}
}
