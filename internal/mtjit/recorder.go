package mtjit

import (
	"metajit/internal/aot"
	"metajit/internal/core"
	"metajit/internal/heap"
	"metajit/internal/isa"
)

// SnapshotFn captures the current guest frame chain (from the trace-root
// frame to the innermost frame) as resume metadata: for every frame, the
// guest pc and the IR refs currently sitting in each slot.
type SnapshotFn func() []FrameSnap

// FrameAdapter is the engine's view of one guest frame. Guest VMs
// implement it so the engine can seed input refs when tracing begins and
// read/write slots when traces enter and exit.
type FrameAdapter interface {
	CodeID() uint32
	GuestPC() int
	NumLocals() int
	NumSlots() int
	ReadSlot(i int) heap.Value
	SetSlotRef(i int, r Ref)
	SlotRef(i int) Ref
	// IsCtor reports whether the frame is a constructor call whose
	// return value is discarded.
	IsCtor() bool
}

// AbortReason classifies why a recording was abandoned.
type AbortReason uint8

// Abort reasons (PyPy's ABORT_TOO_LONG etc.).
const (
	AbortNone AbortReason = iota
	AbortTooLong
	AbortLeftFrame
	AbortForced
)

type constKey struct {
	k heap.Kind
	i int64
	f float64
	o *heap.Obj
}

// TracingMachine is the recording meta-interpreter: it executes guest
// operations concretely (delegating to a DirectMachine) while recording
// the corresponding JIT IR and emitting the much higher per-operation cost
// of meta-interpretation into the tracing phase.
type TracingMachine struct {
	d   *DirectMachine
	eng *Engine

	// UseUnicodeOps selects unicode* IR nodes for string item/length
	// operations (the Python guest's strings are unicode; the Scheme
	// guest's are bytes).
	UseUnicodeOps bool

	ops      []Op
	consts   []heap.Value
	constMap map[constKey]Ref
	nextReg  Ref

	snapshot SnapshotFn
	entry    *ResumeState
	rootKey  GreenKey
	bridge   bool
	fromGrd  uint32 // guard this bridge hangs off
	bcCount  int

	aborted bool
	reason  AbortReason

	// deps are the names of runtime assumptions (constant-folded
	// globals) this recording relies on; install registers them so a
	// later mutation invalidates the trace.
	deps map[string]bool

	recSite isa.Site
}

func newTracingMachine(d *DirectMachine, eng *Engine) *TracingMachine {
	return &TracingMachine{
		d:        d,
		eng:      eng,
		constMap: make(map[constKey]Ref),
		nextReg:  1, // register 0 is the RefUnused sentinel
		recSite:  eng.RT.PC.Site(),
	}
}

var _ Machine = (*TracingMachine)(nil)

// Heap implements Machine.
func (m *TracingMachine) Heap() *heap.Heap { return m.d.H }

// Runtime implements Machine.
func (m *TracingMachine) Runtime() *aot.Runtime { return m.d.RT }

// Tracing implements Machine.
func (m *TracingMachine) Tracing() bool { return true }

// recCost emits the meta-interpretation overhead of recording one IR op:
// the meta-interpreter allocates boxes, appends to the operation list, and
// dispatches on the operation — an order of magnitude over plain
// interpretation.
func (m *TracingMachine) recCost() {
	s := m.d.S
	s.Ops(isa.ALU, 24)
	s.Ops(isa.Load, 9)
	s.Ops(isa.Store, 5)
	s.Branch(m.recSite.PC(), len(m.ops)&7 == 0)
	s.Indirect(m.recSite.PC()+4, uint64(len(m.ops)%23)*64+isa.RegionVMText)
}

// ref returns the IR ref of a TV, interning values that flowed in from
// outside the recording as trace constants.
func (m *TracingMachine) ref(a TV) Ref {
	if a.R != RefNone {
		return a.R
	}
	return m.intern(a.V)
}

func (m *TracingMachine) intern(v heap.Value) Ref {
	k := constKey{k: v.Kind}
	switch v.Kind {
	case heap.KindInt, heap.KindBool:
		k.i = v.I
	case heap.KindFloat:
		k.f = v.F
	case heap.KindRef:
		k.o = v.O
	}
	if r, ok := m.constMap[k]; ok {
		return r
	}
	m.consts = append(m.consts, v)
	r := ConstRef(len(m.consts) - 1)
	m.constMap[k] = r
	return r
}

func (m *TracingMachine) newReg() Ref {
	r := m.nextReg
	m.nextReg++
	return r
}

// rec appends an op, assigning a result register if withRes, and returns
// the result ref.
func (m *TracingMachine) rec(op Op, withRes bool) Ref {
	if withRes {
		op.Res = m.newReg()
	} else {
		op.Res = RefNone
	}
	m.ops = append(m.ops, op)
	m.recCost()
	if len(m.ops) > m.eng.TraceLimit && !m.aborted {
		m.aborted = true
		m.reason = AbortTooLong
	}
	return op.Res
}

func (m *TracingMachine) captureResume() *ResumeState {
	return &ResumeState{Frames: m.snapshot()}
}

// guard records a guard op carrying a fresh resume snapshot. The guard
// sits inside the bytecode currently being recorded (its Dispatch
// already bumped bcCount), and a failure resumes the interpreter at
// that bytecode's start, so the segment's exact retired work at this
// guard excludes the current bytecode.
func (m *TracingMachine) guard(op Op) {
	op.Resume = m.captureResume()
	op.GuardID = m.eng.nextGuardID()
	op.BCProgress = int32(max(m.bcCount-1, 0))
	m.rec(op, false)
	// Snapshot capture cost (resume-data construction).
	n := 0
	for _, f := range op.Resume.Frames {
		n += len(f.Slots)
	}
	m.d.S.Ops(isa.ALU, 4+n)
	m.d.S.Ops(isa.Store, 2+n/2)
}

// Dispatch implements Machine: meta-interpreter dispatch is far heavier
// than plain dispatch (the meta-interpreter interprets the interpreter).
func (m *TracingMachine) Dispatch(site uint64, target uint64) {
	s := m.d.S
	s.Annot(core.TagDispatch, 1)
	s.Ops(isa.ALU, 34)
	s.Ops(isa.Load, 12)
	s.Ops(isa.Store, 4)
	s.Indirect(site, target)
	s.Indirect(m.recSite.PC()+8, target+8)
	m.bcCount++
}

// Const implements Machine.
func (m *TracingMachine) Const(v heap.Value) TV {
	return TV{V: v, R: m.intern(v)}
}

// KindOf implements Machine: the interpreter's type dispatch becomes a
// class guard in the trace.
func (m *TracingMachine) KindOf(a TV) heap.Kind {
	k := m.d.KindOf(a)
	r := m.ref(a)
	if !r.IsConst() {
		sh := KindShape(k)
		if k == heap.KindRef {
			sh = a.V.O.Shape
		}
		m.guard(Op{Opc: OpGuardClass, A: r, Shape: sh})
	}
	return k
}

// ShapeOf implements Machine.
func (m *TracingMachine) ShapeOf(a TV) *heap.Shape {
	sh := m.d.ShapeOf(a)
	r := m.ref(a)
	if !r.IsConst() {
		m.guard(Op{Opc: OpGuardClass, A: r, Shape: sh})
	}
	return sh
}

// IsNil implements Machine.
func (m *TracingMachine) IsNil(a TV) bool {
	isNil := m.d.IsNil(a)
	r := m.ref(a)
	if !r.IsConst() {
		if isNil {
			m.guard(Op{Opc: OpGuardIsnull, A: r})
		} else {
			m.guard(Op{Opc: OpGuardNonnull, A: r})
		}
	}
	return isNil
}

// Truth implements Machine: a guest branch becomes guard_true/guard_false.
func (m *TracingMachine) Truth(a TV, site uint64) bool {
	t := m.d.Truth(a, site)
	r := m.ref(a)
	if !r.IsConst() {
		if t {
			m.guard(Op{Opc: OpGuardTrue, A: r})
		} else {
			m.guard(Op{Opc: OpGuardFalse, A: r})
		}
	}
	return t
}

// PromoteInt implements Machine: RPython's promote hint becomes
// guard_value, making the runtime value a trace constant.
func (m *TracingMachine) PromoteInt(a TV) int64 {
	v := m.d.PromoteInt(a)
	r := m.ref(a)
	if !r.IsConst() {
		m.guard(Op{Opc: OpGuardValue, A: r, Aux: v})
	}
	return v
}

// PromoteRef implements Machine.
func (m *TracingMachine) PromoteRef(a TV) *heap.Obj {
	o := m.d.PromoteRef(a)
	r := m.ref(a)
	if !r.IsConst() {
		m.guard(Op{Opc: OpGuardValue, A: r, Aux: int64(o.UID())})
	}
	return o
}

func (m *TracingMachine) binop(opc Opcode, a, b TV, v heap.Value) TV {
	r := m.rec(Op{Opc: opc, A: m.ref(a), B: m.ref(b)}, true)
	return TV{V: v, R: r}
}

func (m *TracingMachine) unop(opc Opcode, a TV, v heap.Value) TV {
	r := m.rec(Op{Opc: opc, A: m.ref(a)}, true)
	return TV{V: v, R: r}
}

// IntAdd implements Machine.
func (m *TracingMachine) IntAdd(a, b TV) TV { return m.binop(OpIntAdd, a, b, m.d.IntAdd(a, b).V) }

// IntSub implements Machine.
func (m *TracingMachine) IntSub(a, b TV) TV { return m.binop(OpIntSub, a, b, m.d.IntSub(a, b).V) }

// IntMul implements Machine.
func (m *TracingMachine) IntMul(a, b TV) TV { return m.binop(OpIntMul, a, b, m.d.IntMul(a, b).V) }

func (m *TracingMachine) intOvf(opc Opcode, a, b TV, v heap.Value, ovf bool) (TV, bool) {
	res := m.binop(opc, a, b, v)
	aux := int64(0)
	if ovf {
		aux = 1
	}
	m.guard(Op{Opc: OpGuardNoOverflow, Aux: aux})
	return res, ovf
}

// IntAddOvf implements Machine.
func (m *TracingMachine) IntAddOvf(a, b TV) (TV, bool) {
	v, ovf := m.d.IntAddOvf(a, b)
	return m.intOvf(OpIntAddOvf, a, b, v.V, ovf)
}

// IntSubOvf implements Machine.
func (m *TracingMachine) IntSubOvf(a, b TV) (TV, bool) {
	v, ovf := m.d.IntSubOvf(a, b)
	return m.intOvf(OpIntSubOvf, a, b, v.V, ovf)
}

// IntMulOvf implements Machine.
func (m *TracingMachine) IntMulOvf(a, b TV) (TV, bool) {
	v, ovf := m.d.IntMulOvf(a, b)
	return m.intOvf(OpIntMulOvf, a, b, v.V, ovf)
}

// IntFloorDiv implements Machine.
func (m *TracingMachine) IntFloorDiv(a, b TV) TV {
	return m.binop(OpIntFloorDiv, a, b, m.d.IntFloorDiv(a, b).V)
}

// IntMod implements Machine.
func (m *TracingMachine) IntMod(a, b TV) TV { return m.binop(OpIntMod, a, b, m.d.IntMod(a, b).V) }

// IntAnd implements Machine.
func (m *TracingMachine) IntAnd(a, b TV) TV { return m.binop(OpIntAnd, a, b, m.d.IntAnd(a, b).V) }

// IntOr implements Machine.
func (m *TracingMachine) IntOr(a, b TV) TV { return m.binop(OpIntOr, a, b, m.d.IntOr(a, b).V) }

// IntXor implements Machine.
func (m *TracingMachine) IntXor(a, b TV) TV { return m.binop(OpIntXor, a, b, m.d.IntXor(a, b).V) }

// IntLshift implements Machine.
func (m *TracingMachine) IntLshift(a, b TV) TV {
	return m.binop(OpIntLshift, a, b, m.d.IntLshift(a, b).V)
}

// IntRshift implements Machine.
func (m *TracingMachine) IntRshift(a, b TV) TV {
	return m.binop(OpIntRshift, a, b, m.d.IntRshift(a, b).V)
}

// IntNeg implements Machine.
func (m *TracingMachine) IntNeg(a TV) TV { return m.unop(OpIntNeg, a, m.d.IntNeg(a).V) }

// IntCmp implements Machine.
func (m *TracingMachine) IntCmp(opc Opcode, a, b TV) TV {
	return m.binop(opc, a, b, m.d.IntCmp(opc, a, b).V)
}

// FloatArith implements Machine.
func (m *TracingMachine) FloatArith(opc Opcode, a, b TV) TV {
	return m.binop(opc, a, b, m.d.FloatArith(opc, a, b).V)
}

// FloatCmp implements Machine.
func (m *TracingMachine) FloatCmp(opc Opcode, a, b TV) TV {
	return m.binop(opc, a, b, m.d.FloatCmp(opc, a, b).V)
}

// FloatNeg implements Machine.
func (m *TracingMachine) FloatNeg(a TV) TV { return m.unop(OpFloatNeg, a, m.d.FloatNeg(a).V) }

// IntToFloat implements Machine.
func (m *TracingMachine) IntToFloat(a TV) TV {
	return m.unop(OpCastIntToFloat, a, m.d.IntToFloat(a).V)
}

// FloatToInt implements Machine.
func (m *TracingMachine) FloatToInt(a TV) TV {
	return m.unop(OpCastFloatToInt, a, m.d.FloatToInt(a).V)
}

// NewObj implements Machine.
func (m *TracingMachine) NewObj(shape *heap.Shape, nFields int) TV {
	v := m.d.NewObj(shape, nFields)
	r := m.rec(Op{Opc: OpNewWithVtable, Shape: shape, Aux: int64(nFields)}, true)
	return TV{V: v.V, R: r}
}

// NewArray implements Machine.
func (m *TracingMachine) NewArray(shape *heap.Shape, nFields, n int) TV {
	v := m.d.NewArray(shape, nFields, n)
	r := m.rec(Op{Opc: OpNewArray, Shape: shape, Aux: packNewArray(nFields, n)}, true)
	return TV{V: v.V, R: r}
}

// packNewArray packs the field count and array length of new_array into Aux.
func packNewArray(nFields, n int) int64 { return int64(nFields)<<32 | int64(uint32(n)) }

func unpackNewArray(aux int64) (nFields, n int) {
	return int(aux >> 32), int(int32(uint32(aux)))
}

// GetField implements Machine.
func (m *TracingMachine) GetField(o TV, i int) TV {
	v := m.d.GetField(o, i)
	r := m.rec(Op{Opc: OpGetfieldGC, A: m.ref(o), Aux: int64(i)}, true)
	return TV{V: v.V, R: r}
}

// SetField implements Machine.
func (m *TracingMachine) SetField(o TV, i int, v TV) {
	m.d.SetField(o, i, v)
	m.rec(Op{Opc: OpSetfieldGC, A: m.ref(o), B: m.ref(v), Aux: int64(i)}, false)
}

// GetElem implements Machine.
func (m *TracingMachine) GetElem(o TV, i TV) TV {
	v := m.d.GetElem(o, i)
	r := m.rec(Op{Opc: OpGetarrayitemGC, A: m.ref(o), B: m.ref(i)}, true)
	return TV{V: v.V, R: r}
}

// SetElem implements Machine.
func (m *TracingMachine) SetElem(o TV, i TV, v TV) {
	m.d.SetElem(o, i, v)
	m.rec(Op{Opc: OpSetarrayitemGC, A: m.ref(o), B: m.ref(i), C: m.ref(v)}, false)
}

// ArrayLen implements Machine.
func (m *TracingMachine) ArrayLen(o TV) TV {
	v := m.d.ArrayLen(o)
	r := m.rec(Op{Opc: OpArraylenGC, A: m.ref(o)}, true)
	return TV{V: v.V, R: r}
}

// StrGetItem implements Machine.
func (m *TracingMachine) StrGetItem(o TV, i TV) TV {
	v := m.d.StrGetItem(o, i)
	opc := OpStrgetitem
	if m.UseUnicodeOps {
		opc = OpUnicodegetitem
	}
	r := m.rec(Op{Opc: opc, A: m.ref(o), B: m.ref(i)}, true)
	return TV{V: v.V, R: r}
}

// StrLen implements Machine.
func (m *TracingMachine) StrLen(o TV) TV {
	v := m.d.StrLen(o)
	opc := OpStrlen
	if m.UseUnicodeOps {
		opc = OpUnicodelen
	}
	r := m.rec(Op{Opc: opc, A: m.ref(o)}, true)
	return TV{V: v.V, R: r}
}

// PtrEq implements Machine.
func (m *TracingMachine) PtrEq(a, b TV) TV { return m.binop(OpPtrEq, a, b, m.d.PtrEq(a, b).V) }

// Annotate implements Machine: the annotation fires now and is recorded
// so it survives into the compiled trace (the optimizer never removes it).
func (m *TracingMachine) Annotate(tag core.Tag, arg uint64) {
	m.d.S.Annot(tag, arg)
	m.rec(Op{Opc: OpAnnot, Aux: int64(tag)<<32 | int64(uint32(arg))}, false)
}

// CallAOT implements Machine: records a residual call node.
func (m *TracingMachine) CallAOT(fn *aot.Func, thunk Thunk, args ...TV) TV {
	refs := make([]Ref, len(args))
	for i, a := range args {
		refs[i] = m.ref(a)
	}
	v := m.d.CallAOT(fn, thunk, args...)
	opc := OpCall
	if fn.Src == aot.SrcInterp {
		opc = OpCallMayForce
	}
	r := m.rec(Op{Opc: opc, Fn: fn, Thunk: thunk, Args: refs}, true)
	return TV{V: v.V, R: r}
}

// CallAOT1 implements Machine (recording is off the hot path: forward).
func (m *TracingMachine) CallAOT1(fn *aot.Func, thunk Thunk, a TV) TV {
	return m.CallAOT(fn, thunk, a)
}

// CallAOT2 implements Machine.
func (m *TracingMachine) CallAOT2(fn *aot.Func, thunk Thunk, a, b TV) TV {
	return m.CallAOT(fn, thunk, a, b)
}

// CallAOT3 implements Machine.
func (m *TracingMachine) CallAOT3(fn *aot.Func, thunk Thunk, a, b, c TV) TV {
	return m.CallAOT(fn, thunk, a, b, c)
}

// GuestCall implements Machine: calls are inlined into the trace, so only
// the meta-interpreter's bookkeeping cost remains.
func (m *TracingMachine) GuestCall(site uint64) {
	m.d.S.Ops(isa.ALU, 12)
	m.d.S.Ops(isa.Store, 4)
}

// GuestReturn implements Machine.
func (m *TracingMachine) GuestReturn() {
	m.d.S.Ops(isa.ALU, 6)
	m.d.S.Ops(isa.Load, 3)
}

// DependOnGlobal records that the trace constant-folded the value bound
// to name: a guard_not_invalidated op is recorded (once per name per
// recording), and on install the trace registers as a dependent so a
// later store to name invalidates it (RPython's quasi-immutable field
// mechanism, applied to versioned module dicts).
func (m *TracingMachine) DependOnGlobal(name string) {
	if m.deps[name] {
		return
	}
	if m.deps == nil {
		m.deps = make(map[string]bool)
	}
	m.deps[name] = true
	m.guard(Op{Opc: OpGuardNotInvalidated})
}

// DependsOnGlobal reports whether the recording already constant-folded
// the named global. Guest VMs must abort the recording before storing to
// such a name: the recorded constant is already stale.
func (m *TracingMachine) DependsOnGlobal(name string) bool { return m.deps[name] }

// Abort abandons the recording with the given reason; the driver picks
// it up at the next merge point.
func (m *TracingMachine) Abort(reason AbortReason) {
	m.aborted = true
	m.reason = reason
}

// RefOf exposes the IR ref of a TV for snapshot construction, interning
// values that flowed in from outside the recording.
func (m *TracingMachine) RefOf(tv TV) Ref { return m.ref(tv) }
