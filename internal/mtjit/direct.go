package mtjit

import (
	"math/bits"

	"metajit/internal/aot"
	"metajit/internal/core"
	"metajit/internal/cpu"
	"metajit/internal/heap"
	"metajit/internal/isa"
)

// DirectMachine executes guest operations concretely and emits the
// interpreter's cost into the instruction stream according to its
// CostProfile. It implements plain interpretation for both the reference
// VM (CPython analog) and the framework VM with the JIT off or cold.
type DirectMachine struct {
	H  *heap.Heap
	RT *aot.Runtime
	S  *cpu.Machine
	P  *CostProfile

	dispatchSeq uint64

	// foot reduces table-load hashes modulo P.Footprint, and addrs and
	// brs are the buffers a dispatch or primitive computes its table-load
	// addresses and extra branches into before retiring them in one call.
	// All three are sized from P when the machine is built. addrBuf and
	// brBuf back the buffers for every shipped profile, so that building
	// a machine, which every trace recording does, is one allocation.
	foot    divisor
	addrs   []uint64
	brs     []cpu.CondBranch
	addrBuf [8]uint64
	brBuf   [2]cpu.CondBranch

	// Per-profile instruction mixes, precomputed so the hottest
	// fixed-shape overheads retire through one Block call each. Held per
	// machine (not on the shared CostProfile) so concurrent cells never
	// share mutable state.
	callBlock *isa.Block // guest-call frame setup
	faddBlock *isa.Block // float add/sub/cmp-style: PrimALU + one FPU op
	fmulBlock *isa.Block
	fdivBlock *isa.Block

	// vals is the residual-call value stack: CallAOT pushes the argument
	// values, hands the thunk that window, and pops it. A thunk's args
	// are valid only until it returns; one that keeps them copies.
	vals []heap.Value
}

var _ Machine = (*DirectMachine)(nil)

// guestReturnBlock is the fixed frame-teardown overhead of GuestReturn.
var guestReturnBlock = isa.NewBlock(isa.CC(isa.ALU, 2), isa.CC(isa.Load, 2))

// NewDirectMachine returns a machine over the given heap/runtime with the
// given cost profile, which must have a footprint.
func NewDirectMachine(rt *aot.Runtime, p *CostProfile) *DirectMachine {
	if p.Footprint == 0 {
		panic("mtjit: cost profile " + p.Name + " has no footprint")
	}
	m := &DirectMachine{
		H: rt.H, RT: rt, S: rt.H.Stream(), P: p,
		foot: newDivisor(p.Footprint),
		callBlock: isa.NewBlock(isa.CC(isa.ALU, p.CallALU),
			isa.CC(isa.Load, p.CallLoads), isa.CC(isa.Store, p.CallStores)),
		faddBlock: isa.NewBlock(isa.CC(isa.ALU, p.PrimALU), isa.CC(isa.FPU, 1)),
		fmulBlock: isa.NewBlock(isa.CC(isa.ALU, p.PrimALU), isa.CC(isa.FMul, 1)),
		fdivBlock: isa.NewBlock(isa.CC(isa.ALU, p.PrimALU), isa.CC(isa.FDiv, 1)),
	}
	m.addrs, m.brs = m.addrBuf[:], m.brBuf[:]
	if n := max(p.DispatchLoads, p.PrimLoads); n > len(m.addrs) {
		m.addrs = make([]uint64, n)
	}
	if p.DispatchXtraBr > len(m.brs) {
		m.brs = make([]cpu.CondBranch, p.DispatchXtraBr)
	}
	m.brs = m.brs[:p.DispatchXtraBr]
	return m
}

// Heap implements Machine.
func (m *DirectMachine) Heap() *heap.Heap { return m.H }

// Runtime implements Machine.
func (m *DirectMachine) Runtime() *aot.Runtime { return m.RT }

// Tracing implements Machine.
func (m *DirectMachine) Tracing() bool { return false }

// tableAddr returns the address of one load into the interpreter's
// working set: larger footprints (translated interpreters) miss the
// caches, which is where the reference-vs-framework IPC gap comes from.
func (m *DirectMachine) tableAddr(salt uint64) uint64 {
	// Interpreter tables have strong locality: most accesses hit a hot
	// core, a fraction walks the full working set.
	h := salt * 0x9E3779B97F4A7C15
	base := isa.RegionVMText + 0x20_0000
	var addr uint64
	if h%16 != 0 {
		addr = base + (h>>32)%(16<<10)
	} else {
		addr = base + m.foot.mod(h>>16)
	}
	return addr &^ 7
}

// Dispatch implements Machine: the fetch/decode/dispatch cost of one
// bytecode, including the hard-to-predict indirect handler jump, retired
// through one cpu.Machine.Dispatch.
func (m *DirectMachine) Dispatch(site uint64, target uint64) {
	loads := m.addrs[:m.P.DispatchLoads]
	for i := range loads {
		loads[i] = m.tableAddr(target + uint64(i)*977)
	}
	brs := m.brs
	for i := range brs {
		// Framework interpreters carry extra data-dependent branches
		// per bytecode (jit bookkeeping, signal checks); their outcome
		// pattern follows the bytecode stream.
		brs[i] = cpu.CondBranch{PC: site + 4 + uint64(i)*4, Taken: (target>>uint(i+3))&1 == 0}
	}
	m.S.Dispatch(m.P.DispatchALU, loads, site, target, brs)
	m.dispatchSeq++
}

func (m *DirectMachine) prim() {
	loads := m.addrs[:m.P.PrimLoads]
	for i := range loads {
		m.dispatchSeq++
		loads[i] = m.tableAddr(m.dispatchSeq*7 + uint64(i))
	}
	m.S.OpsLoads(m.P.PrimALU, loads)
}

// divisor reduces modulo a fixed d with one high multiply instead of a
// divide. With r = floor((2^64-1)/d), the high word of x*r is x/d
// rounded down or one less, so x minus that quotient times d is below
// 2d and one conditional subtract makes it exactly x % d, for every x.
type divisor struct{ d, r uint64 }

func newDivisor(d uint64) divisor { return divisor{d: d, r: ^uint64(0) / d} }

func (v divisor) mod(x uint64) uint64 {
	q, _ := bits.Mul64(x, v.r)
	x -= q * v.d
	if x >= v.d {
		x -= v.d
	}
	return x
}

// Const implements Machine.
func (m *DirectMachine) Const(v heap.Value) TV { return Concrete(v) }

// KindOf implements Machine.
func (m *DirectMachine) KindOf(a TV) heap.Kind {
	m.S.Ops(isa.ALU, 1)
	return a.V.Kind
}

// ShapeOf implements Machine.
func (m *DirectMachine) ShapeOf(a TV) *heap.Shape {
	m.S.Ops(isa.ALU, 1)
	if a.V.Kind != heap.KindRef {
		return KindShape(a.V.Kind)
	}
	m.S.Load(a.V.O.Addr())
	return a.V.O.Shape
}

// IsNil implements Machine.
func (m *DirectMachine) IsNil(a TV) bool {
	m.S.Ops(isa.ALU, 1)
	return a.V.Kind == heap.KindNil
}

// Truth implements Machine: a data-dependent guest branch.
func (m *DirectMachine) Truth(a TV, site uint64) bool {
	m.prim()
	t := a.V.Truthy()
	m.S.Branch(site, t)
	return t
}

// PromoteInt implements Machine.
func (m *DirectMachine) PromoteInt(a TV) int64 {
	m.S.Ops(isa.ALU, 1)
	return a.V.I
}

// PromoteRef implements Machine.
func (m *DirectMachine) PromoteRef(a TV) *heap.Obj {
	m.S.Ops(isa.ALU, 1)
	return a.V.O
}

// ---- integer ops ----

// IntAdd implements Machine.
func (m *DirectMachine) IntAdd(a, b TV) TV {
	m.prim()
	return Concrete(heap.IntVal(a.V.I + b.V.I))
}

// IntSub implements Machine.
func (m *DirectMachine) IntSub(a, b TV) TV {
	m.prim()
	return Concrete(heap.IntVal(a.V.I - b.V.I))
}

// IntMul implements Machine.
func (m *DirectMachine) IntMul(a, b TV) TV {
	m.prim()
	m.S.Ops(isa.Mul, 1)
	return Concrete(heap.IntVal(a.V.I * b.V.I))
}

func addOvf(a, b int64) (int64, bool) {
	r := a + b
	return r, ((a ^ r) & (b ^ r)) < 0
}

func subOvf(a, b int64) (int64, bool) {
	r := a - b
	return r, ((a ^ b) & (a ^ r)) < 0
}

func mulOvf(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, false
	}
	r := a * b
	if r/b != a || (a == -1 && b == -9223372036854775808) || (b == -1 && a == -9223372036854775808) {
		return r, true
	}
	return r, false
}

// IntAddOvf implements Machine.
func (m *DirectMachine) IntAddOvf(a, b TV) (TV, bool) {
	m.prim()
	r, ovf := addOvf(a.V.I, b.V.I)
	return Concrete(heap.IntVal(r)), ovf
}

// IntSubOvf implements Machine.
func (m *DirectMachine) IntSubOvf(a, b TV) (TV, bool) {
	m.prim()
	r, ovf := subOvf(a.V.I, b.V.I)
	return Concrete(heap.IntVal(r)), ovf
}

// IntMulOvf implements Machine.
func (m *DirectMachine) IntMulOvf(a, b TV) (TV, bool) {
	m.prim()
	m.S.Ops(isa.Mul, 1)
	r, ovf := mulOvf(a.V.I, b.V.I)
	return Concrete(heap.IntVal(r)), ovf
}

// IntFloorDiv implements Machine (Python floor semantics; b != 0).
func (m *DirectMachine) IntFloorDiv(a, b TV) TV {
	m.prim()
	m.S.Ops(isa.Div, 1)
	return Concrete(heap.IntVal(floorDiv(a.V.I, b.V.I)))
}

// IntMod implements Machine (Python floor semantics; b != 0).
func (m *DirectMachine) IntMod(a, b TV) TV {
	m.prim()
	m.S.Ops(isa.Div, 1)
	return Concrete(heap.IntVal(floorMod(a.V.I, b.V.I)))
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func floorMod(a, b int64) int64 {
	r := a % b
	if r != 0 && ((a < 0) != (b < 0)) {
		r += b
	}
	return r
}

// IntAnd implements Machine.
func (m *DirectMachine) IntAnd(a, b TV) TV {
	m.prim()
	return Concrete(heap.IntVal(a.V.I & b.V.I))
}

// IntOr implements Machine.
func (m *DirectMachine) IntOr(a, b TV) TV {
	m.prim()
	return Concrete(heap.IntVal(a.V.I | b.V.I))
}

// IntXor implements Machine.
func (m *DirectMachine) IntXor(a, b TV) TV {
	m.prim()
	return Concrete(heap.IntVal(a.V.I ^ b.V.I))
}

// IntLshift implements Machine (shift counts 0..63).
func (m *DirectMachine) IntLshift(a, b TV) TV {
	m.prim()
	return Concrete(heap.IntVal(a.V.I << uint(b.V.I&63)))
}

// IntRshift implements Machine.
func (m *DirectMachine) IntRshift(a, b TV) TV {
	m.prim()
	return Concrete(heap.IntVal(a.V.I >> uint(b.V.I&63)))
}

// IntNeg implements Machine.
func (m *DirectMachine) IntNeg(a TV) TV {
	m.prim()
	return Concrete(heap.IntVal(-a.V.I))
}

// IntCmp implements Machine for OpIntLt..OpIntGe.
func (m *DirectMachine) IntCmp(opc Opcode, a, b TV) TV {
	m.prim()
	return Concrete(heap.BoolVal(intCmp(opc, a.V.I, b.V.I)))
}

func intCmp(opc Opcode, a, b int64) bool {
	switch opc {
	case OpIntLt:
		return a < b
	case OpIntLe:
		return a <= b
	case OpIntEq:
		return a == b
	case OpIntNe:
		return a != b
	case OpIntGt:
		return a > b
	case OpIntGe:
		return a >= b
	}
	panic("mtjit: bad int comparison opcode " + opc.Name())
}

// ---- float ops ----

// FloatArith implements Machine for add/sub/mul/div.
func (m *DirectMachine) FloatArith(opc Opcode, a, b TV) TV {
	switch opc {
	case OpFloatMul:
		m.S.Block(m.fmulBlock)
	case OpFloatTruediv:
		m.S.Block(m.fdivBlock)
	default:
		m.S.Block(m.faddBlock)
	}
	return Concrete(heap.FloatVal(floatArith(opc, a.V.F, b.V.F)))
}

func floatArith(opc Opcode, a, b float64) float64 {
	switch opc {
	case OpFloatAdd:
		return a + b
	case OpFloatSub:
		return a - b
	case OpFloatMul:
		return a * b
	case OpFloatTruediv:
		return a / b
	}
	panic("mtjit: bad float arith opcode " + opc.Name())
}

// FloatCmp implements Machine for OpFloatLt..OpFloatGe.
func (m *DirectMachine) FloatCmp(opc Opcode, a, b TV) TV {
	m.S.Block(m.faddBlock)
	return Concrete(heap.BoolVal(floatCmp(opc, a.V.F, b.V.F)))
}

func floatCmp(opc Opcode, a, b float64) bool {
	switch opc {
	case OpFloatLt:
		return a < b
	case OpFloatLe:
		return a <= b
	case OpFloatEq:
		return a == b
	case OpFloatNe:
		return a != b
	case OpFloatGt:
		return a > b
	case OpFloatGe:
		return a >= b
	}
	panic("mtjit: bad float comparison opcode " + opc.Name())
}

// FloatNeg implements Machine.
func (m *DirectMachine) FloatNeg(a TV) TV {
	m.S.Ops(isa.FPU, 1)
	return Concrete(heap.FloatVal(-a.V.F))
}

// IntToFloat implements Machine.
func (m *DirectMachine) IntToFloat(a TV) TV {
	m.S.Ops(isa.FPU, 1)
	return Concrete(heap.FloatVal(float64(a.V.I)))
}

// FloatToInt implements Machine (truncating).
func (m *DirectMachine) FloatToInt(a TV) TV {
	m.S.Ops(isa.FPU, 1)
	return Concrete(heap.IntVal(int64(a.V.F)))
}

// ---- heap ops ----

// NewObj implements Machine.
func (m *DirectMachine) NewObj(shape *heap.Shape, nFields int) TV {
	m.prim()
	return Concrete(heap.RefVal(m.H.AllocObj(shape, nFields)))
}

// NewArray implements Machine.
func (m *DirectMachine) NewArray(shape *heap.Shape, nFields, n int) TV {
	m.prim()
	return Concrete(heap.RefVal(m.H.AllocElems(shape, nFields, n)))
}

// GetField implements Machine.
func (m *DirectMachine) GetField(o TV, i int) TV {
	m.prim()
	return Concrete(m.H.ReadField(o.V.O, i))
}

// SetField implements Machine.
func (m *DirectMachine) SetField(o TV, i int, v TV) {
	m.prim()
	m.H.WriteField(o.V.O, i, v.V)
}

// GetElem implements Machine (bounds already checked by the guest).
func (m *DirectMachine) GetElem(o TV, i TV) TV {
	m.prim()
	return Concrete(m.H.ReadElem(o.V.O, int(i.V.I)))
}

// SetElem implements Machine.
func (m *DirectMachine) SetElem(o TV, i TV, v TV) {
	m.prim()
	m.H.WriteElem(o.V.O, int(i.V.I), v.V)
}

// ArrayLen implements Machine.
func (m *DirectMachine) ArrayLen(o TV) TV {
	m.S.Ops(isa.ALU, 1)
	m.S.Load(o.V.O.Addr() + 8)
	return Concrete(heap.IntVal(int64(len(o.V.O.Elems))))
}

// StrGetItem implements Machine.
func (m *DirectMachine) StrGetItem(o TV, i TV) TV {
	m.prim()
	return Concrete(heap.IntVal(int64(m.H.LoadByte(o.V.O, int(i.V.I)))))
}

// StrLen implements Machine.
func (m *DirectMachine) StrLen(o TV) TV {
	m.S.Ops(isa.ALU, 1)
	m.S.Load(o.V.O.Addr() + 8)
	return Concrete(heap.IntVal(int64(len(o.V.O.Bytes))))
}

// PtrEq implements Machine.
func (m *DirectMachine) PtrEq(a, b TV) TV {
	m.S.Ops(isa.ALU, 1)
	return Concrete(heap.BoolVal(a.V.Eq(b.V)))
}

// Annotate implements Machine: the annotation is a tagged nop.
func (m *DirectMachine) Annotate(tag core.Tag, arg uint64) {
	m.S.Annot(tag, arg)
}

// CallAOT implements Machine: from the plain interpreter, a residual call
// is just a call (no phase change).
func (m *DirectMachine) CallAOT(fn *aot.Func, thunk Thunk, args ...TV) TV {
	for _, a := range args {
		m.vals = append(m.vals, a.V)
	}
	return m.callAOT(fn, thunk, len(args))
}

// CallAOT1 implements Machine.
func (m *DirectMachine) CallAOT1(fn *aot.Func, thunk Thunk, a TV) TV {
	m.vals = append(m.vals, a.V)
	return m.callAOT(fn, thunk, 1)
}

// CallAOT2 implements Machine.
func (m *DirectMachine) CallAOT2(fn *aot.Func, thunk Thunk, a, b TV) TV {
	m.vals = append(m.vals, a.V, b.V)
	return m.callAOT(fn, thunk, 2)
}

// CallAOT3 implements Machine.
func (m *DirectMachine) CallAOT3(fn *aot.Func, thunk Thunk, a, b, c TV) TV {
	m.vals = append(m.vals, a.V, b.V, c.V)
	return m.callAOT(fn, thunk, 3)
}

// callAOT calls thunk on the top n values of the value stack and pops
// them. A nested residual call pushes above the window (and may move the
// stack, which leaves the outer window readable where it was).
func (m *DirectMachine) callAOT(fn *aot.Func, thunk Thunk, n int) TV {
	base := len(m.vals) - n
	m.RT.CallPrologue(fn, n)
	args := m.vals[base:len(m.vals):len(m.vals)]
	res := thunk(args)
	if PoisonScratch {
		poison(args)
	}
	m.RT.CallEpilogue(fn)
	m.vals = m.vals[:base]
	return Concrete(res)
}

// GuestCall implements Machine.
func (m *DirectMachine) GuestCall(site uint64) {
	m.S.Block(m.callBlock)
	m.S.CallDirect(site)
}

// GuestReturn implements Machine.
func (m *DirectMachine) GuestReturn() {
	m.S.Block(guestReturnBlock)
	m.S.Return()
}
