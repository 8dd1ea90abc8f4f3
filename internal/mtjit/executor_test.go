package mtjit

import (
	"fmt"
	"math/rand"
	"testing"

	"metajit/internal/aot"
	"metajit/internal/core"
	"metajit/internal/cpu"
	"metajit/internal/heap"
)

// handFrame is a FrameAdapter over plain values, for hand-built traces.
type handFrame struct{ vals []heap.Value }

func (f *handFrame) CodeID() uint32            { return 1 }
func (f *handFrame) GuestPC() int              { return 0 }
func (f *handFrame) NumLocals() int            { return len(f.vals) }
func (f *handFrame) NumSlots() int             { return len(f.vals) }
func (f *handFrame) ReadSlot(i int) heap.Value { return f.vals[i] }
func (f *handFrame) SetSlotRef(int, Ref)       {}
func (f *handFrame) SlotRef(int) Ref           { return RefNone }
func (f *handFrame) IsCtor() bool              { return false }

// assembleByHand does for a hand-built trace what install does for a
// recorded one: an ID, addresses, the predecoded form and a place in the
// engine's record.
func assembleByHand(e *Engine, t *Trace) *Trace {
	t.ID = uint32(len(e.all) + 1)
	e.assemble(t)
	t.predecode()
	e.all = append(e.all, t)
	return t
}

// TestEveryOpcodeHasAHandler runs every opcode of the IR through Execute in
// a two-op trace (the op, then finish): an opcode without a case in the
// executor's switch panics there. For the pure ops it also pins what the
// handler computes — the optimizer folds constants with evalPureBin and
// evalPureUn, and a trace must compute the same — and that it retires the
// instruction count the opcode table states.
func TestEveryOpcodeHasAHandler(t *testing.T) {
	mach := cpu.NewDefault()
	h := heap.New(mach, heap.DefaultConfig())
	rt := aot.NewRuntime(h)
	e := NewEngine(rt, FrameworkProfile())
	sh := h.NewShape("box", 2)
	fn := rt.Register("test.id", aot.SrcIntrinsic)
	box := h.AllocElems(sh, 2, 4)
	str := h.AllocBytes(h.NewShape("str", 0), len("trace"))
	copy(str.Bytes, "trace")
	h.AddRoots(heap.RootFunc(func(visit func(*heap.Obj)) { visit(box); visit(str) }))

	// Inputs: r1=6 r2=3 r3=1.5 r4=0.5 r5=box r6=str r7=0; results go to r8.
	const res = 8
	inputs := []heap.Value{heap.IntVal(6), heap.IntVal(3), heap.FloatVal(1.5), heap.FloatVal(0.5),
		heap.RefVal(box), heap.RefVal(str), heap.IntVal(0)}
	resume := func(slots ...Ref) *ResumeState {
		return &ResumeState{Frames: []FrameSnap{{CodeID: 1, Slots: slots, NumLocals: len(slots)}}}
	}
	target := assembleByHand(e, buildTrace(1, nil, []Op{{Opc: OpFinish, Resume: resume(1)}}))
	// Everything but the operands, which follow from the category.
	special := map[Opcode]Op{
		OpGetfieldGC:          {A: 5, Aux: 1, Res: res},
		OpSetfieldGC:          {A: 5, B: 1, Aux: 1},
		OpGetarrayitemGC:      {A: 5, B: 2, Res: res},
		OpSetarrayitemGC:      {A: 5, B: 2, C: 1},
		OpArraylenGC:          {A: 5, Res: res},
		OpStrgetitem:          {A: 6, B: 2, Res: res},
		OpStrlen:              {A: 6, Res: res},
		OpUnicodegetitem:      {A: 6, B: 2, Res: res},
		OpUnicodelen:          {A: 6, Res: res},
		OpGuardTrue:           {A: 1},
		OpGuardFalse:          {A: 7},
		OpGuardValue:          {A: 1, Aux: 6},
		OpGuardClass:          {A: 1, Shape: ShapeIntKind},
		OpGuardNonnull:        {A: 1},
		OpGuardIsnull:         {},
		OpGuardNoOverflow:     {},
		OpGuardNotInvalidated: {},
		OpCall:                {Args: []Ref{1}, Res: res},
		OpCallMayForce:        {Args: []Ref{1}, Res: res},
		OpCondCall:            {Args: []Ref{1}},
		OpLabel:               {},
		OpAnnot:               {Aux: int64(core.TagGCSkipped)<<32 | 7},
		OpNewWithVtable:       {Shape: sh, Aux: 2, Res: res},
		OpNewArray:            {Shape: sh, Aux: packNewArray(2, 3), Res: res},
		OpCastIntToFloat:      {A: 1, Res: res},
		OpPtrEq:               {A: 5, B: 6, Res: res},
		OpPtrNe:               {A: 5, B: 6, Res: res},
		OpSameAs:              {A: 5, Res: res},
	}
	thunk := func(args []heap.Value) heap.Value { return args[0] }

	for opc := Opcode(1); opc < NumOpcodes; opc++ {
		name := opc.Name()
		if name == "" {
			t.Errorf("opcode %d has no opInfos entry", opc)
			continue
		}
		op, ok := special[opc]
		switch {
		case ok:
		case opc.Cat() == CatInt:
			op = Op{A: 1, B: 2, Res: res}
		case opc.Cat() == CatFloat:
			op = Op{A: 3, B: 4, Res: res}
		case opc == OpJump || opc == OpFinish || opc == OpCallAssembler:
		default:
			t.Errorf("%s: the test does not know this opcode's operands", name)
			continue
		}
		op.Opc = opc
		if opc.IsGuard() {
			op.Resume, op.GuardID = resume(1), 1
		}
		if opc.IsCall() && opc != OpCallAssembler {
			op.Fn, op.Thunk = fn, thunk
		}

		// The trace: the op and a finish that hands back the result, or
		// the op alone when it is a terminator itself. A jump runs the
		// trace again, so a guard before it is forced to fail on its
		// second pass.
		fin := Op{Opc: OpFinish, Resume: resume(1)}
		if op.Res == res {
			fin.Resume = resume(res)
		}
		ops := []Op{op, fin}
		switch opc {
		case OpFinish:
			ops = []Op{fin}
		case OpCallAssembler:
			ops = []Op{{Opc: opc, Target: target, Resume: resume(1)}}
		case OpJump:
			ops = []Op{
				{Opc: OpGuardNonnull, A: 1, Resume: resume(1), GuardID: 1},
				{Opc: opc, Args: []Ref{1, 2, 3, 4, 5, 6, 7}},
			}
		}
		tr := buildTrace(len(inputs), nil, ops)
		tr.NumRegs = res + 1
		assembleByHand(e, tr)
		if err := ValidateTrace(tr); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		passes := 0
		e.ForceGuardFail = func(*Trace, *Op) bool { passes++; return opc == OpJump && passes == 2 }

		before := mach.TotalInstrs()
		var exit *ExitState
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: Execute panicked: %v", name, r)
				}
			}()
			exit = e.Execute(tr, &handFrame{inputs})
		}()
		if exit == nil {
			continue
		}
		if opc == OpCallAssembler && exit.Enter != target {
			t.Errorf("%s: exit does not enter the target trace", name)
		}
		if opc == OpJump && (passes != 2 || tr.ExecCount != 2) {
			t.Errorf("%s: %d guard checks, %d passes, want 2 and 2", name, passes, tr.ExecCount)
		}
		if !opc.Pure() {
			continue
		}
		a, b := inputs[op.A-1], heap.Nil
		if op.B != 0 {
			b = inputs[op.B-1]
		}
		want, ok := evalPureBin(opc, a, b)
		if !ok {
			want, ok = evalPureUn(opc, a)
		}
		switch opc {
		case OpIntAddOvf, OpIntSubOvf, OpIntMulOvf: // not folded through evalPure*
			plain := map[Opcode]Opcode{OpIntAddOvf: OpIntAdd, OpIntSubOvf: OpIntSub, OpIntMulOvf: OpIntMul}
			want, ok = evalPureBin(plain[opc], a, b)
		}
		if got := exit.Frames[0].Vals[0]; !ok || got != want {
			t.Errorf("%s(%v, %v) = %v in a trace, %v folded (foldable: %v)", name, a, b, got, want, ok)
		}
		// Around the op: jit_enter, the dispatch tick, finish's five, jit_leave.
		if got := int(mach.TotalInstrs()-before) - 8; got != opc.AsmLen() {
			t.Errorf("%s retired %d instructions, the opcode table says %d", name, got, opc.AsmLen())
		}
	}
}

// TestDerivedOpExecsMatchCounted: Trace.OpExecs derives per-op execution
// counts from pass counts and guard failures. Here a hand-built loop and
// its bridge run under a seeded schedule of forced guard failures — the
// loop's first guard fails on its very first execution — while the test
// counts executions itself: every other op is an annotation nop with its
// own argument, which an observer tallies, and every guard execution asks
// ForceGuardFail. The two counts must agree op for op.
func TestDerivedOpExecsMatchCounted(t *testing.T) {
	mach := cpu.NewDefault()
	rt := aot.NewRuntime(heap.New(mach, heap.DefaultConfig()))
	e := NewEngine(rt, FrameworkProfile())

	resume := func() *ResumeState {
		return &ResumeState{Frames: []FrameSnap{{CodeID: 1, Slots: []Ref{1}, NumLocals: 1}}}
	}
	mark := func(arg int) Op { return Op{Opc: OpAnnot, Aux: int64(core.TagGCSkipped)<<32 | int64(arg)} }
	guard := func(id uint32) Op { return Op{Opc: OpGuardNonnull, A: 1, Resume: resume(), GuardID: id} }

	loop := assembleByHand(e, buildTrace(1, nil, []Op{
		mark(0), guard(1), mark(1), guard(2), mark(2), {Opc: OpLabel}, mark(3), {Opc: OpJump, Args: []Ref{1}},
	}))
	bridge := buildTrace(1, nil, []Op{
		mark(10), guard(3), mark(11), {Opc: OpJump, Args: []Ref{1}, Target: loop},
	})
	bridge.Bridge = true
	assembleByHand(e, bridge)
	loop.Ops[3].Bridge = bridge // guard 2 transfers; guards 1 and 3 deoptimize

	marks := map[uint64]uint64{}
	mach.Observe(core.ObserverFunc(func(a core.Annotation, _, _ uint64) { marks[a.Arg]++ }), core.TagGCSkipped)
	checks := map[uint32]uint64{}
	rng := rand.New(rand.NewSource(4))
	e.ForceGuardFail = func(_ *Trace, op *Op) bool {
		checks[op.GuardID]++
		switch op.GuardID {
		case 1:
			return checks[1] == 1 || rng.Intn(9) == 0
		case 2:
			return rng.Intn(3) == 0
		}
		return rng.Intn(4) == 0
	}
	for i := 0; i < 300; i++ {
		e.Execute(loop, &handFrame{[]heap.Value{heap.IntVal(1)}})
	}

	if loop.Ops[1].Fails == 0 || bridge.Ops[1].Fails == 0 || bridge.ExecCount < 100 {
		t.Fatalf("schedule too tame: guard 1 failed %d times, guard 3 %d times, bridge ran %d times",
			loop.Ops[1].Fails, bridge.Ops[1].Fails, bridge.ExecCount)
	}
	for _, tr := range []*Trace{loop, bridge} {
		derived := tr.OpExecs()
		for i := range tr.Ops {
			op := &tr.Ops[i]
			var counted uint64
			switch {
			case op.Opc == OpAnnot:
				counted = marks[uint64(uint32(op.Aux))]
			case op.Opc.IsGuard():
				counted = checks[op.GuardID]
			default: // label, jump: no exit since the mark before it
				counted = derived[i-1]
			}
			if derived[i] != counted {
				t.Errorf("trace %d op %d %s: derived %d executions, counted %d", tr.ID, i, op, derived[i], counted)
			}
		}
	}
	if got := fmt.Sprint(loop.OpExecs()[:2]); got != fmt.Sprint([]uint64{loop.ExecCount, loop.ExecCount}) {
		t.Errorf("ops up to the first guard ran %s times, the loop was entered %d times", got, loop.ExecCount)
	}
}
