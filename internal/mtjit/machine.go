package mtjit

import (
	"metajit/internal/aot"
	"metajit/internal/core"
	"metajit/internal/cpu"
	"metajit/internal/heap"
	"metajit/internal/isa"
)

// TV is a traced value: the concrete guest value plus, while the
// meta-interpreter is recording, the IR ref that produced it. Guest
// interpreter frames hold TVs so the same evaluator code runs in plain
// interpretation, under the tracing meta-interpreter, and (indirectly)
// as compiled code. A TV is four words, the most the Go compiler splits
// into scalars it passes in registers and spills field by field; a fifth
// word makes it a block of memory, copied with wide loads from narrow
// stores on every handler call (TestTVIsFourWords).
type TV struct {
	V heap.Value
	R Ref
}

// Concrete wraps a value with no trace ref (plain interpretation).
func Concrete(v heap.Value) TV { return TV{V: v, R: RefNone} }

// Pseudo-shapes used by guard_class over unboxed kinds: RPython-level
// boxes all have classes; our unboxed values guard on a kind tag instead.
var (
	ShapeNilKind   = &heap.Shape{Name: "W_None", ID: 0xFFF0, VTableAddr: isa.RegionVMText + 0x70_0000}
	ShapeBoolKind  = &heap.Shape{Name: "W_Bool", ID: 0xFFF1, VTableAddr: isa.RegionVMText + 0x70_0100}
	ShapeIntKind   = &heap.Shape{Name: "W_Int", ID: 0xFFF2, VTableAddr: isa.RegionVMText + 0x70_0200}
	ShapeFloatKind = &heap.Shape{Name: "W_Float", ID: 0xFFF3, VTableAddr: isa.RegionVMText + 0x70_0300}
)

// KindShape maps an unboxed kind to its pseudo-shape.
func KindShape(k heap.Kind) *heap.Shape {
	switch k {
	case heap.KindNil:
		return ShapeNilKind
	case heap.KindBool:
		return ShapeBoolKind
	case heap.KindInt:
		return ShapeIntKind
	case heap.KindFloat:
		return ShapeFloatKind
	}
	return nil
}

// CostProfile parameterizes the per-operation interpreter overhead of a VM.
// The reference interpreter (CPython analog) is hand-written C with cheap
// dispatch; the framework interpreter (RPython analog) pays translation
// overhead — the paper measures it at roughly 2× (Table I discussion).
type CostProfile struct {
	Name string

	// Dispatch overhead per bytecode: fetch/decode ALU work, handler
	// table loads, and the number of extra poorly-predicted branches.
	DispatchALU    int
	DispatchLoads  int
	DispatchXtraBr int

	// Primitive overhead per value operation (unboxing, tag tests).
	PrimALU   int
	PrimLoads int

	// Footprint is the interpreter's working-set size in bytes
	// (handler tables, type tables): dispatch and primitive loads walk
	// this region, so a translated interpreter's larger footprint costs
	// real cache misses — the paper's explanation for the framework
	// interpreter's lower IPC. Every profile has one.
	Footprint uint64

	// Guest-call overhead (frame setup).
	CallALU    int
	CallLoads  int
	CallStores int
}

// ReferenceProfile models the hand-written reference interpreter
// (CPython analog).
func ReferenceProfile() *CostProfile {
	return &CostProfile{
		Name:          "reference",
		DispatchALU:   6,
		DispatchLoads: 2,
		PrimALU:       3,
		PrimLoads:     1,
		Footprint:     24 << 10, // hand-written C core fits in L1
		CallALU:       10,
		CallLoads:     4,
		CallStores:    6,
	}
}

// FrameworkProfile models the framework-generated interpreter (RPython
// translated to C): more instructions per bytecode and worse branch
// behavior, giving the ~2× gap and lower IPC the paper measures.
func FrameworkProfile() *CostProfile {
	return &CostProfile{
		Name:           "framework",
		DispatchALU:    13,
		DispatchLoads:  5,
		DispatchXtraBr: 2,
		PrimALU:        7,
		PrimLoads:      3,
		Footprint:      1536 << 10, // translated interpreter overflows L1/L2
		CallALU:        18,
		CallLoads:      8,
		CallStores:     10,
	}
}

// CustomVMProfile models a custom JIT-optimizing VM baseline (the Racket
// VM in Table II): much lower per-op cost than a pure interpreter, standing
// in for its method-JIT-compiled code.
func CustomVMProfile() *CostProfile {
	return &CostProfile{
		Name:          "customvm",
		DispatchALU:   2,
		DispatchLoads: 1,
		PrimALU:       1,
		PrimLoads:     0,
		Footprint:     16 << 10,
		CallALU:       6,
		CallLoads:     2,
		CallStores:    3,
	}
}

// Thunk is the body of a residual call: it performs the call on concrete
// values, from the interpreter and again from compiled code. It must not
// keep args — the slice is the caller's scratch, valid until it returns.
type Thunk = func(args []heap.Value) heap.Value

// Machine is what guest interpreters are written against: the
// meta-tracing analog of writing an interpreter in RPython. A guest VM
// holds one Machine for its whole life, and one definition of every
// operation serves plain interpretation, lower-tier residency and trace
// recording. Each operation does its plain work — the concrete result,
// priced on the DirectMachine of the code now running — and two hooks
// extend it:
//
//   - while a lower tier is resident (Reside), every operation that is
//     a guard in trace terms (type tests, truth tests, promotions,
//     overflow arithmetic) first passes the tier's generic-guard point;
//   - while a recording is active (Record), the Recorder appends the
//     operation's IR after the plain work, so type tests and truth
//     tests become guards in the trace.
//
// The plain case makes no interface call: an operation is a direct call
// (Const and KindOf inline into the handlers), and each hook is one
// predictable nil check.
type Machine struct {
	h *heap.Heap
	s *cpu.Machine

	// d prices the code now running: plain, the interpreter's own;
	// resident, the tier's own (dispatchSeq feeds tableAddr, so the
	// instances are never shared); recording, the recording's own.
	d     *DirectMachine
	plain *DirectMachine
	rec   *Recorder
	tier  *Residency
}

// NewMachine returns a guest machine over the runtime whose plain
// interpretation costs follow p, which must have a footprint.
func NewMachine(rt *aot.Runtime, p *CostProfile) *Machine {
	d := newDirectMachine(rt, p)
	return &Machine{h: rt.H, s: d.S, d: d, plain: d}
}

// Record starts recording into r, or stops recording when r is nil.
func (m *Machine) Record(r *Recorder) {
	m.rec = r
	m.reprice()
}

// Reside makes the machine execute at lower-tier residency r's cost with
// its guard points, or at the interpreter's when r is nil.
func (m *Machine) Reside(r *Residency) {
	m.tier = r
	m.reprice()
}

func (m *Machine) reprice() {
	switch {
	case m.rec != nil && m.tier != nil:
		panic("mtjit: recording while resident in a lower tier")
	case m.rec != nil:
		m.d = m.rec.d
	case m.tier != nil:
		m.d = m.tier.d
	default:
		m.d = m.plain
	}
}

// Plain reports whether the machine is interpreting with neither hook set.
func (m *Machine) Plain() bool { return m.rec == nil && m.tier == nil }

// Dispatch accounts one iteration of the guest dispatch loop and emits
// the cross-layer dispatch annotation (the work meter): the
// fetch/decode/dispatch cost of one bytecode, including the
// hard-to-predict indirect handler jump, retired through one
// cpu.Machine.Dispatch. Recording, it is the meta-interpreter's far
// heavier dispatch.
func (m *Machine) Dispatch(site uint64, target uint64) {
	if m.rec != nil {
		m.rec.dispatch(site, target)
		return
	}
	d := m.d
	loads := d.addrs[:d.P.DispatchLoads]
	for i := range loads {
		loads[i] = d.tableAddr(target + uint64(i)*977)
	}
	brs := d.brs
	for i := range brs {
		// Framework interpreters carry extra data-dependent branches
		// per bytecode (jit bookkeeping, signal checks); their outcome
		// pattern follows the bytecode stream.
		brs[i] = cpu.CondBranch{PC: site + 4 + uint64(i)*4, Taken: (target>>uint(i+3))&1 == 0}
	}
	m.s.Dispatch(d.P.DispatchALU, loads, site, target, brs)
	d.dispatchSeq++
}

// Const injects a constant.
func (m *Machine) Const(v heap.Value) TV {
	r := RefNone
	if m.rec != nil {
		r = m.rec.intern(v)
	}
	return TV{V: v, R: r}
}

// KindOf is a type test: guard_class over the value's kind in a trace.
func (m *Machine) KindOf(a TV) heap.Kind {
	m.kindTest(a)
	return a.V.Kind
}

// kindTest prices KindOf out of line, so that KindOf itself inlines
// into the guest's handlers.
func (m *Machine) kindTest(a TV) {
	if m.tier != nil {
		m.tier.guard()
	}
	m.s.Ops(isa.ALU, 1)
	if m.rec != nil {
		m.rec.guardKind(a)
	}
}

// ShapeOf is a type test returning the value's shape (its kind's
// pseudo-shape for unboxed values): guard_class in a trace.
func (m *Machine) ShapeOf(a TV) *heap.Shape {
	if m.tier != nil {
		m.tier.guard()
	}
	m.s.Ops(isa.ALU, 1)
	var sh *heap.Shape
	if a.V.Kind != heap.KindRef {
		sh = KindShape(a.V.Kind)
	} else {
		m.s.Load(a.V.O.Addr())
		sh = a.V.O.Shape
	}
	if m.rec != nil {
		m.rec.guardShape(a, sh)
	}
	return sh
}

// IsNil is a nil test: guard_isnull or guard_nonnull in a trace.
func (m *Machine) IsNil(a TV) bool {
	if m.tier != nil {
		m.tier.guard()
	}
	m.s.Ops(isa.ALU, 1)
	isNil := a.V.Kind == heap.KindNil
	if m.rec != nil {
		m.rec.guardNil(a, isNil)
	}
	return isNil
}

// Truth is a data-dependent guest branch at site: guard_true or
// guard_false in a trace.
func (m *Machine) Truth(a TV, site uint64) bool {
	if m.tier != nil {
		m.tier.guard()
	}
	m.d.prim()
	t := a.V.Truthy()
	m.s.Branch(site, t)
	if m.rec != nil {
		m.rec.guardTruth(a, t)
	}
	return t
}

// PromoteRef promotes an object identity (e.g. a code object):
// guard_value on the identity.
func (m *Machine) PromoteRef(a TV) *heap.Obj {
	if m.tier != nil {
		m.tier.guard()
	}
	m.s.Ops(isa.ALU, 1)
	if m.rec != nil {
		m.rec.guardValue(a, int64(a.V.O.UID()))
	}
	return a.V.O
}

// ---- integer ops (operands must be ints) ----

// IntAdd adds.
func (m *Machine) IntAdd(a, b TV) TV {
	m.d.prim()
	v := heap.IntVal(a.V.I + b.V.I)
	if m.rec != nil {
		return TV{V: v, R: m.rec.binop(OpIntAdd, a, b)}
	}
	return Concrete(v)
}

// IntAddOvf adds and reports overflow: guard_no_overflow in a trace.
func (m *Machine) IntAddOvf(a, b TV) (TV, bool) {
	if m.tier != nil {
		m.tier.guard()
	}
	m.d.prim()
	r, ovf := addOvf(a.V.I, b.V.I)
	if m.rec != nil {
		return TV{V: heap.IntVal(r), R: m.rec.intOvf(OpIntAddOvf, a, b, ovf)}, ovf
	}
	return Concrete(heap.IntVal(r)), ovf
}

// IntSubOvf subtracts and reports overflow.
func (m *Machine) IntSubOvf(a, b TV) (TV, bool) {
	if m.tier != nil {
		m.tier.guard()
	}
	m.d.prim()
	r, ovf := subOvf(a.V.I, b.V.I)
	if m.rec != nil {
		return TV{V: heap.IntVal(r), R: m.rec.intOvf(OpIntSubOvf, a, b, ovf)}, ovf
	}
	return Concrete(heap.IntVal(r)), ovf
}

// IntMulOvf multiplies and reports overflow.
func (m *Machine) IntMulOvf(a, b TV) (TV, bool) {
	if m.tier != nil {
		m.tier.guard()
	}
	m.d.prim()
	m.s.Ops(isa.Mul, 1)
	r, ovf := mulOvf(a.V.I, b.V.I)
	if m.rec != nil {
		return TV{V: heap.IntVal(r), R: m.rec.intOvf(OpIntMulOvf, a, b, ovf)}, ovf
	}
	return Concrete(heap.IntVal(r)), ovf
}

// IntFloorDiv divides with Python floor semantics; b != 0.
func (m *Machine) IntFloorDiv(a, b TV) TV {
	m.d.prim()
	m.s.Ops(isa.Div, 1)
	v := heap.IntVal(floorDiv(a.V.I, b.V.I))
	if m.rec != nil {
		return TV{V: v, R: m.rec.binop(OpIntFloorDiv, a, b)}
	}
	return Concrete(v)
}

// IntMod is the remainder with Python floor semantics; b != 0.
func (m *Machine) IntMod(a, b TV) TV {
	m.d.prim()
	m.s.Ops(isa.Div, 1)
	v := heap.IntVal(floorMod(a.V.I, b.V.I))
	if m.rec != nil {
		return TV{V: v, R: m.rec.binop(OpIntMod, a, b)}
	}
	return Concrete(v)
}

// IntAnd is bitwise and.
func (m *Machine) IntAnd(a, b TV) TV {
	m.d.prim()
	v := heap.IntVal(a.V.I & b.V.I)
	if m.rec != nil {
		return TV{V: v, R: m.rec.binop(OpIntAnd, a, b)}
	}
	return Concrete(v)
}

// IntOr is bitwise or.
func (m *Machine) IntOr(a, b TV) TV {
	m.d.prim()
	v := heap.IntVal(a.V.I | b.V.I)
	if m.rec != nil {
		return TV{V: v, R: m.rec.binop(OpIntOr, a, b)}
	}
	return Concrete(v)
}

// IntXor is bitwise exclusive or.
func (m *Machine) IntXor(a, b TV) TV {
	m.d.prim()
	v := heap.IntVal(a.V.I ^ b.V.I)
	if m.rec != nil {
		return TV{V: v, R: m.rec.binop(OpIntXor, a, b)}
	}
	return Concrete(v)
}

// IntLshift shifts left (shift counts 0..63).
func (m *Machine) IntLshift(a, b TV) TV {
	m.d.prim()
	v := heap.IntVal(a.V.I << uint(b.V.I&63))
	if m.rec != nil {
		return TV{V: v, R: m.rec.binop(OpIntLshift, a, b)}
	}
	return Concrete(v)
}

// IntRshift shifts right arithmetically (shift counts 0..63).
func (m *Machine) IntRshift(a, b TV) TV {
	m.d.prim()
	v := heap.IntVal(a.V.I >> uint(b.V.I&63))
	if m.rec != nil {
		return TV{V: v, R: m.rec.binop(OpIntRshift, a, b)}
	}
	return Concrete(v)
}

// IntNeg negates.
func (m *Machine) IntNeg(a TV) TV {
	m.d.prim()
	v := heap.IntVal(-a.V.I)
	if m.rec != nil {
		return TV{V: v, R: m.rec.unop(OpIntNeg, a)}
	}
	return Concrete(v)
}

// IntCmp compares for OpIntLt..OpIntGe.
func (m *Machine) IntCmp(opc Opcode, a, b TV) TV {
	m.d.prim()
	v := heap.BoolVal(intCmp(opc, a.V.I, b.V.I))
	if m.rec != nil {
		return TV{V: v, R: m.rec.binop(opc, a, b)}
	}
	return Concrete(v)
}

// ---- float ops ----

// FloatArith is add/sub/mul/div.
func (m *Machine) FloatArith(opc Opcode, a, b TV) TV {
	switch opc {
	case OpFloatMul:
		m.s.Block(m.d.fmulBlock)
	case OpFloatTruediv:
		m.s.Block(m.d.fdivBlock)
	default:
		m.s.Block(m.d.faddBlock)
	}
	v := heap.FloatVal(floatArith(opc, a.V.F(), b.V.F()))
	if m.rec != nil {
		return TV{V: v, R: m.rec.binop(opc, a, b)}
	}
	return Concrete(v)
}

// FloatCmp compares for OpFloatLt..OpFloatGe.
func (m *Machine) FloatCmp(opc Opcode, a, b TV) TV {
	m.s.Block(m.d.faddBlock)
	v := heap.BoolVal(floatCmp(opc, a.V.F(), b.V.F()))
	if m.rec != nil {
		return TV{V: v, R: m.rec.binop(opc, a, b)}
	}
	return Concrete(v)
}

// FloatNeg negates.
func (m *Machine) FloatNeg(a TV) TV {
	m.s.Ops(isa.FPU, 1)
	v := heap.FloatVal(-a.V.F())
	if m.rec != nil {
		return TV{V: v, R: m.rec.unop(OpFloatNeg, a)}
	}
	return Concrete(v)
}

// IntToFloat converts.
func (m *Machine) IntToFloat(a TV) TV {
	m.s.Ops(isa.FPU, 1)
	v := heap.FloatVal(float64(a.V.I))
	if m.rec != nil {
		return TV{V: v, R: m.rec.unop(OpCastIntToFloat, a)}
	}
	return Concrete(v)
}

// FloatToInt converts, truncating.
func (m *Machine) FloatToInt(a TV) TV {
	m.s.Ops(isa.FPU, 1)
	v := heap.IntVal(int64(a.V.F()))
	if m.rec != nil {
		return TV{V: v, R: m.rec.unop(OpCastFloatToInt, a)}
	}
	return Concrete(v)
}

// ---- heap ops ----

// NewObj allocates an object of shape with nFields fields.
func (m *Machine) NewObj(shape *heap.Shape, nFields int) TV {
	m.d.prim()
	v := heap.RefVal(m.h.AllocObj(shape, nFields))
	if m.rec != nil {
		return TV{V: v, R: m.rec.rec(Op{Opc: OpNewWithVtable, Shape: shape, Aux: int64(nFields)}, true)}
	}
	return Concrete(v)
}

// NewArray allocates an object of shape with nFields fields and n
// elements.
func (m *Machine) NewArray(shape *heap.Shape, nFields, n int) TV {
	m.d.prim()
	v := heap.RefVal(m.h.AllocElems(shape, nFields, n))
	if m.rec != nil {
		return TV{V: v, R: m.rec.rec(Op{Opc: OpNewArray, Shape: shape, Aux: packNewArray(nFields, n)}, true)}
	}
	return Concrete(v)
}

// GetField reads field i.
func (m *Machine) GetField(o TV, i int) TV {
	m.d.prim()
	v := m.h.ReadField(o.V.O, i)
	if m.rec != nil {
		return TV{V: v, R: m.rec.getField(o, i)}
	}
	return Concrete(v)
}

// SetField writes field i.
func (m *Machine) SetField(o TV, i int, v TV) {
	m.d.prim()
	m.h.WriteField(o.V.O, i, v.V)
	if m.rec != nil {
		m.rec.setField(o, i, v)
	}
}

// GetElem reads element i (bounds already checked by the guest).
func (m *Machine) GetElem(o TV, i TV) TV {
	m.d.prim()
	v := m.h.ReadElem(o.V.O, int(i.V.I))
	if m.rec != nil {
		return TV{V: v, R: m.rec.binop(OpGetarrayitemGC, o, i)}
	}
	return Concrete(v)
}

// SetElem writes element i.
func (m *Machine) SetElem(o TV, i TV, v TV) {
	m.d.prim()
	m.h.WriteElem(o.V.O, int(i.V.I), v.V)
	if m.rec != nil {
		m.rec.setElem(o, i, v)
	}
}

// ArrayLen is the element count.
func (m *Machine) ArrayLen(o TV) TV {
	m.s.Ops(isa.ALU, 1)
	m.s.Load(o.V.O.Addr() + 8)
	v := heap.IntVal(int64(len(o.V.O.Elems)))
	if m.rec != nil {
		return TV{V: v, R: m.rec.unop(OpArraylenGC, o)}
	}
	return Concrete(v)
}

// StrGetItem reads byte i of a string.
func (m *Machine) StrGetItem(o TV, i TV) TV {
	m.d.prim()
	v := heap.IntVal(int64(m.h.LoadByte(o.V.O, int(i.V.I))))
	if m.rec != nil {
		return TV{V: v, R: m.rec.binop(m.rec.strOp(OpStrgetitem), o, i)}
	}
	return Concrete(v)
}

// StrLen is a string's length.
func (m *Machine) StrLen(o TV) TV {
	m.s.Ops(isa.ALU, 1)
	m.s.Load(o.V.O.Addr() + 8)
	v := heap.IntVal(int64(len(o.V.O.Bytes)))
	if m.rec != nil {
		return TV{V: v, R: m.rec.unop(m.rec.strOp(OpStrlen), o)}
	}
	return Concrete(v)
}

// PtrEq compares identities.
func (m *Machine) PtrEq(a, b TV) TV {
	m.s.Ops(isa.ALU, 1)
	v := heap.BoolVal(a.V.Eq(b.V))
	if m.rec != nil {
		return TV{V: v, R: m.rec.binop(OpPtrEq, a, b)}
	}
	return Concrete(v)
}

// Annotate emits a cross-layer annotation: a tagged nop in the
// instruction stream. Recording keeps it, so it survives into the
// compiled trace (the optimizer never removes it).
func (m *Machine) Annotate(tag core.Tag, arg uint64) {
	m.s.Annot(tag, arg)
	if m.rec != nil {
		m.rec.rec(Op{Opc: OpAnnot, Aux: int64(tag)<<32 | int64(uint32(arg))}, false)
	}
}

// CallAOT performs a residual call to an AOT-compiled function: from
// the interpreter just a call (no phase change), recorded as a call
// node. thunk must capture everything needed to re-execute the call from
// compiled code.
func (m *Machine) CallAOT(fn *aot.Func, thunk Thunk, args ...TV) TV {
	if m.rec != nil {
		return m.rec.callAOT(fn, thunk, args)
	}
	return m.d.callAOT(fn, thunk, args)
}

// GuestCall accounts a guest call's frame push. Calls are inlined into
// a trace, so recording pays only the meta-interpreter's bookkeeping.
func (m *Machine) GuestCall(site uint64) {
	if m.rec != nil {
		m.s.Ops(isa.ALU, 12)
		m.s.Ops(isa.Store, 4)
		return
	}
	m.s.Block(m.d.callBlock)
	m.s.CallDirect(site)
}

// GuestReturn accounts a guest call's frame pop.
func (m *Machine) GuestReturn() {
	if m.rec != nil {
		m.s.Ops(isa.ALU, 6)
		m.s.Ops(isa.Load, 3)
		return
	}
	m.s.Block(guestReturnBlock)
	m.s.Return()
}
