package mtjit

import (
	"fmt"
	"slices"
)

// This file implements structural well-formedness checks over installed
// traces and over the engine's bookkeeping. The differential-testing
// oracle (internal/difftest) runs them after every JIT execution; they
// are cheap enough to keep on in any test that owns an Engine.

// ValidateTrace checks that an installed trace is well-formed:
//
//   - the entry maps interpreter slots onto distinct in-range registers
//     (loop traces have exactly one entry frame),
//   - every op operand names a constant in range, an entry register, or
//     the result of an earlier op (SSA: results are assigned once),
//   - every guard carries a resume snapshot and a nonzero GuardID, and
//     its resume data only references defined registers, constants, or
//     virtuals described in the same snapshot,
//   - call ops carry their callee (Fn/Thunk, or Target for
//     call_assembler),
//   - the trace ends in exactly one terminator (jump / finish /
//     call_assembler) and jump argument counts match the target entry,
//   - the predecoded form the executor runs agrees with Ops op for op:
//     same opcode, operand and result slots that resolve to the op's
//     refs, the op's absolute address (the ops lie back to back from
//     AsmBase), and the op itself behind it.
func ValidateTrace(t *Trace) error {
	if t == nil {
		return fmt.Errorf("nil trace")
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("trace %d (bridge=%v): %s", t.ID, t.Bridge, fmt.Sprintf(format, args...))
	}
	if t.Entry == nil || len(t.Entry.Frames) == 0 {
		return fail("missing entry state")
	}
	if !t.Bridge && len(t.Entry.Frames) != 1 {
		return fail("loop trace entry has %d frames, want 1", len(t.Entry.Frames))
	}
	if t.NumRegs < 1 {
		return fail("NumRegs = %d", t.NumRegs)
	}
	if len(t.code) != len(t.Ops) {
		return fail("predecoded form covers %d of %d ops", len(t.code), len(t.Ops))
	}
	if t.regBase != len(t.Consts) {
		return fail("register base %d with %d constants", t.regBase, len(t.Consts))
	}

	defined := make(map[Ref]bool)
	for fi := range t.Entry.Frames {
		for si, r := range t.Entry.Frames[fi].Slots {
			if r <= 0 || int(r) >= t.NumRegs {
				return fail("entry frame %d slot %d maps to register %d (NumRegs %d)", fi, si, r, t.NumRegs)
			}
			if defined[r] {
				return fail("entry register %d assigned twice", r)
			}
			defined[r] = true
		}
	}

	// operandOK reports whether r may be read at this point. extra holds
	// virtual refs defined by the resume snapshot being checked (nil
	// outside resume data).
	operandOK := func(r Ref, extra map[Ref]bool) error {
		switch {
		case r == RefNone || r == RefUnused:
			return nil
		case r.IsConst():
			if i := r.ConstIndex(); i < 0 || i >= len(t.Consts) {
				return fmt.Errorf("constant ref %d out of range (table size %d)", r, len(t.Consts))
			}
			return nil
		case defined[r]:
			return nil
		case extra != nil && extra[r]:
			return nil
		default:
			return fmt.Errorf("register %d read before definition", r)
		}
	}

	checkResume := func(i int, op *Op) error {
		rs := op.Resume
		if len(rs.Frames) == 0 {
			return fail("op %d %s: resume state has no frames", i, op)
		}
		virt := make(map[Ref]bool, len(rs.Virtuals))
		for _, vd := range rs.Virtuals {
			if vd.Shape == nil {
				return fail("op %d %s: virtual %d has no shape", i, op, vd.Ref)
			}
			if vd.NumFields != len(vd.FieldRefs) {
				return fail("op %d %s: virtual %d has %d field refs, want %d", i, op, vd.Ref, len(vd.FieldRefs), vd.NumFields)
			}
			if vd.ArrayLen >= 0 && vd.ArrayLen != len(vd.ElemRefs) {
				return fail("op %d %s: virtual %d has %d elem refs, want %d", i, op, vd.Ref, len(vd.ElemRefs), vd.ArrayLen)
			}
			if vd.ArrayLen < 0 && len(vd.ElemRefs) != 0 {
				return fail("op %d %s: non-array virtual %d has elem refs", i, op, vd.Ref)
			}
			virt[vd.Ref] = true
		}
		for _, vd := range rs.Virtuals {
			for _, f := range vd.FieldRefs {
				if err := operandOK(f, virt); err != nil {
					return fail("op %d %s: virtual %d field: %v", i, op, vd.Ref, err)
				}
			}
			for _, el := range vd.ElemRefs {
				if err := operandOK(el, virt); err != nil {
					return fail("op %d %s: virtual %d elem: %v", i, op, vd.Ref, err)
				}
			}
		}
		for fi := range rs.Frames {
			for si, s := range rs.Frames[fi].Slots {
				if err := operandOK(s, virt); err != nil {
					return fail("op %d %s: resume frame %d slot %d: %v", i, op, fi, si, err)
				}
			}
		}
		return nil
	}

	if len(t.Ops) == 0 {
		return fail("empty op list")
	}
	pc := t.AsmBase
	for i := range t.Ops {
		op := &t.Ops[i]
		for _, r := range [...]Ref{op.A, op.B, op.C} {
			if err := operandOK(r, nil); err != nil {
				return fail("op %d %s: %v", i, op, err)
			}
		}
		for ai, a := range op.Args {
			if err := operandOK(a, nil); err != nil {
				return fail("op %d %s: arg %d: %v", i, op, ai, err)
			}
		}

		switch {
		case op.Opc.IsGuard():
			if op.Resume == nil {
				return fail("op %d %s: guard without resume state", i, op)
			}
			if op.GuardID == 0 {
				return fail("op %d %s: guard without GuardID", i, op)
			}
		case op.Opc == OpCall || op.Opc == OpCallMayForce || op.Opc == OpCondCall:
			if op.Fn == nil || op.Thunk == nil {
				return fail("op %d %s: residual call without Fn/Thunk", i, op)
			}
		case op.Opc == OpCallAssembler:
			if op.Target == nil {
				return fail("op %d call_assembler without target", i)
			}
			if op.Resume == nil {
				return fail("op %d call_assembler without resume state", i)
			}
		}
		if op.Resume != nil {
			if err := checkResume(i, op); err != nil {
				return err
			}
		}

		terminator := op.Opc == OpJump || op.Opc == OpFinish || op.Opc == OpCallAssembler
		if terminator && i != len(t.Ops)-1 {
			return fail("op %d %s: terminator before end of trace", i, op)
		}
		if i == len(t.Ops)-1 && !terminator {
			return fail("last op %s is not jump/finish/call_assembler", op)
		}

		if op.Opc == OpJump {
			target := op.Target
			if target == nil {
				target = t
			}
			want := len(target.Entry.Frames[0].Slots)
			if len(op.Args) != want {
				return fail("jump passes %d args, target trace %d entry takes %d", len(op.Args), target.ID, want)
			}
		}

		if err := t.checkInst(i, pc); err != nil {
			return fail("op %d %s: predecoded form: %v", i, op, err)
		}
		pc += uint64(op.Opc.AsmLen()) * 4

		if op.Res != RefNone {
			if op.Res <= 0 || int(op.Res) >= t.NumRegs {
				return fail("op %d %s: result register %d out of range (NumRegs %d)", i, op, op.Res, t.NumRegs)
			}
			if defined[op.Res] {
				return fail("op %d %s: register %d assigned twice", i, op, op.Res)
			}
			defined[op.Res] = true
		}
	}
	return nil
}

// checkInst compares predecoded instruction i with the op it was lowered
// from, which lies at pc.
func (t *Trace) checkInst(i int, pc uint64) error {
	op, x := &t.Ops[i], &t.code[i]
	if x.op != op || x.opc != op.Opc || x.aux != op.Aux || x.shape != op.Shape {
		return fmt.Errorf("holds %s (aux %d), not this op", x.opc.Name(), x.aux)
	}
	if x.pc != pc {
		return fmt.Errorf("pc %#x, want %#x", x.pc, pc)
	}
	// A slot names the ref regBase below it; an absent operand reads the
	// unused ref's slot and an absent result has none.
	named := func(slot int32) Ref { return Ref(int(slot) - t.regBase) }
	want := func(r Ref) Ref {
		if r == RefNone {
			return RefUnused
		}
		return r
	}
	if named(x.a) != want(op.A) || named(x.b) != want(op.B) || named(x.c) != want(op.C) {
		return fmt.Errorf("operand slots resolve to refs %d, %d, %d; op names %d, %d, %d",
			named(x.a), named(x.b), named(x.c), want(op.A), want(op.B), want(op.C))
	}
	if res := want(op.Res); res == RefUnused && x.res != -1 || res != RefUnused && named(x.res) != res {
		return fmt.Errorf("result slot %d, op names register %d", x.res, res)
	}
	return nil
}

// Validate checks the engine's bookkeeping for internal consistency and
// validates every installed trace. It verifies that:
//
//   - LoopsCompiled + BridgesCompiled matches the installed trace count,
//     and each trace's ID is its install index plus one (TraceByID),
//   - the optimizer never reports removing more ops than were recorded,
//   - per-reason abort counters never exceed the abort total,
//   - every GuardID belongs to exactly one op of one installed trace and
//     the guard table maps it to that op — the per-guard counters and the
//     execution counts derived from them (Trace.OpExecs) rely on it,
//   - the guards' failure counts add up to EngineStats.GuardFailures,
//   - the trace table and the guards' bridge pointers only hold
//     installed, non-invalidated traces, and stats.Invalidated matches
//     the number of invalidated traces in the compile log.
func (e *Engine) Validate() error {
	st := e.stats
	if st.LoopsCompiled+st.BridgesCompiled != len(e.all) {
		return fmt.Errorf("stats count %d loops + %d bridges, %d traces installed",
			st.LoopsCompiled, st.BridgesCompiled, len(e.all))
	}
	if st.OpsRemoved < 0 || st.OpsRecorded < 0 || st.OpsRemoved > st.OpsRecorded {
		return fmt.Errorf("OpsRemoved %d > OpsRecorded %d", st.OpsRemoved, st.OpsRecorded)
	}
	if st.AbortsTooLong+st.AbortsLeftFrame > st.Aborts {
		return fmt.Errorf("abort reasons (%d too-long + %d left-frame) exceed %d aborts",
			st.AbortsTooLong, st.AbortsLeftFrame, st.Aborts)
	}

	loops, bridges, invalidated := 0, 0, 0
	for _, t := range e.all {
		if t.Invalidated {
			invalidated++
		}
	}
	if invalidated != st.Invalidated {
		return fmt.Errorf("%d traces marked invalidated, stats.Invalidated = %d", invalidated, st.Invalidated)
	}

	guards, fails := 0, uint64(0)
	for i, t := range e.all {
		if t.ID != uint32(i+1) {
			return fmt.Errorf("trace %d at install index %d (TraceByID)", t.ID, i)
		}
		if err := ValidateTrace(t); err != nil {
			return err
		}
		if t.Bridge {
			bridges++
		} else {
			loops++
		}
		for i := range t.Ops {
			op := &t.Ops[i]
			if !op.Opc.IsGuard() {
				continue
			}
			if e.guard(op.GuardID) != op {
				return fmt.Errorf("trace %d op %d: guard table does not map guard %d to this op (duplicate or unregistered ID)",
					t.ID, i, op.GuardID)
			}
			guards++
			fails += uint64(op.Fails)
			if b := op.Bridge; b != nil {
				if !b.Bridge {
					return fmt.Errorf("guard %d holds loop trace %d as its bridge", op.GuardID, b.ID)
				}
				if b.Invalidated {
					return fmt.Errorf("guard %d holds invalidated bridge %d", op.GuardID, b.ID)
				}
				if !slices.Contains(e.all, b) {
					return fmt.Errorf("guard %d holds uninstalled bridge %d", op.GuardID, b.ID)
				}
			}
		}
	}
	for id, op := range e.guards {
		if op != nil {
			guards--
			if op.GuardID != uint32(id) {
				return fmt.Errorf("guard table entry %d holds guard %d", id, op.GuardID)
			}
		}
	}
	if guards != 0 {
		return fmt.Errorf("guard table holds %d ops that are no guard of an installed trace", -guards)
	}
	if loops != st.LoopsCompiled || bridges != st.BridgesCompiled {
		return fmt.Errorf("installed %d loops / %d bridges, stats say %d / %d",
			loops, bridges, st.LoopsCompiled, st.BridgesCompiled)
	}

	if fails != st.GuardFailures {
		return fmt.Errorf("per-guard failure counts sum to %d, stats.GuardFailures = %d", fails, st.GuardFailures)
	}

	for key, t := range e.traces {
		if t.Bridge {
			return fmt.Errorf("loop table entry %v holds bridge trace %d", key, t.ID)
		}
		if t.Invalidated {
			return fmt.Errorf("loop table entry %v holds invalidated trace %d", key, t.ID)
		}
		if !slices.Contains(e.all, t) {
			return fmt.Errorf("loop table entry %v holds uninstalled trace %d", key, t.ID)
		}
	}
	for name, ts := range e.globalDeps {
		for _, t := range ts {
			if !slices.Contains(e.all, t) {
				return fmt.Errorf("global dep %q holds uninstalled trace %d", name, t.ID)
			}
		}
	}
	return e.validateTiers()
}

// validateTiers checks lower-tier bookkeeping, the same for every tier:
// stats match the compile log, IDs are install indexes plus one
// (TierCodeByID) at rising addresses (TierCodes merges the tiers by
// address), every compiled region is well-formed,
// the dispatch table only holds valid installed code under its own key,
// and per-code counters sum to the engine totals. Then the two
// cross-tier invariants: promotion invalidated the baseline code a loop
// trace supersedes, and a function with live method code has no live
// baseline fragments (method install must invalidate them) — while
// coexisting loop traces are legal (a loop trace owns its header inside
// a method-compiled function).
func (e *Engine) validateTiers() error {
	for t := Tier(0); t < NumTiers; t++ {
		spec, ts := &tierTable[t], &e.tiers[t]
		want := ts.stats
		if *want.compiled != len(ts.all) {
			return fmt.Errorf("stats count %d %s compiles, %d codes installed", *want.compiled, t, len(ts.all))
		}
		invalidated := 0
		var enters, deopts uint64
		for i, c := range ts.all {
			if c.ID != uint32(i+1) {
				return fmt.Errorf("%s code %d at install index %d (TierCodeByID)", t, c.ID, i)
			}
			if i > 0 && c.AsmBase <= ts.all[i-1].AsmBase {
				return fmt.Errorf("%s code %d below its predecessor's address (TierCodes)", t, c.ID)
			}
			if c.Invalidated {
				invalidated++
			}
			enters += c.EnterCount
			deopts += c.DeoptCount
			if c.Tier != t {
				return fmt.Errorf("%s compile log holds %s code %d", t, c.Tier, c.ID)
			}
			if len(c.Ops) == 0 {
				return fmt.Errorf("%s code %d has no ops", t, c.ID)
			}
			if c.AsmLen <= 0 {
				return fmt.Errorf("%s code %d has AsmLen %d", t, c.ID, c.AsmLen)
			}
			if !c.Covers(c.Start) {
				return fmt.Errorf("%s code %d region [%d,%d] does not cover its entry pc", t, c.ID, c.Start, c.End)
			}
			if spec.key(c.Key()) != c.Key() {
				return fmt.Errorf("%s code %d is keyed %v, not by the tier's lookup key", t, c.ID, c.Key())
			}
			for i := range c.Ops {
				if !c.Covers(c.Ops[i].PC) {
					return fmt.Errorf("%s code %d op %d at pc %d outside region [%d,%d]",
						t, c.ID, i, c.Ops[i].PC, c.Start, c.End)
				}
				if c.Ops[i].AsmLen <= 0 {
					return fmt.Errorf("%s code %d op %d has AsmLen %d", t, c.ID, i, c.Ops[i].AsmLen)
				}
			}
		}
		if invalidated != *want.invalidated {
			return fmt.Errorf("%d %s codes marked invalidated, stats say %d", invalidated, t, *want.invalidated)
		}
		if enters != *want.enters {
			return fmt.Errorf("per-code %s enter counts sum to %d, stats say %d", t, enters, *want.enters)
		}
		if deopts != *want.deopts {
			return fmt.Errorf("per-code %s deopt counts sum to %d, stats say %d", t, deopts, *want.deopts)
		}
		for key, c := range ts.live {
			if c.Key() != key {
				return fmt.Errorf("%s table entry %v holds code %d keyed %v", t, key, c.ID, c.Key())
			}
			if c.Invalidated {
				return fmt.Errorf("%s table entry %v holds invalidated code %d", t, key, c.ID)
			}
			if !slices.Contains(ts.all, c) {
				return fmt.Errorf("%s table entry %v holds uninstalled code %d", t, key, c.ID)
			}
		}
		for name, cs := range ts.deps {
			for _, c := range cs {
				if !slices.Contains(ts.all, c) {
					return fmt.Errorf("%s global dep %q holds uninstalled code %d", t, name, c.ID)
				}
			}
		}
	}
	for key, bc := range e.tiers[BaselineTier].live {
		if t := e.traces[key]; t != nil && !t.Invalidated {
			return fmt.Errorf("header %v has both live baseline code %d and loop trace %d (promotion must invalidate)",
				key, bc.ID, t.ID)
		}
		if mc := e.liveTier(MethodTier, key); mc != nil {
			return fmt.Errorf("function %d has both live method code %d and baseline code %d (method install must invalidate)",
				key.CodeID, mc.ID, bc.ID)
		}
	}
	return nil
}
