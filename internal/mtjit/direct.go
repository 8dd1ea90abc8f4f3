package mtjit

import (
	"math/bits"

	"metajit/internal/aot"
	"metajit/internal/cpu"
	"metajit/internal/heap"
	"metajit/internal/isa"
)

// DirectMachine prices plain execution: it emits the interpreter's
// per-bytecode dispatch, per-primitive overhead, residual-call and
// guest-call costs into the instruction stream according to its
// CostProfile. A Machine does each operation's plain work on the
// DirectMachine of the code now running: the interpreter's (the
// reference VM, or the framework VM with the JIT off or cold), a
// resident lower tier's, or a recording's.
type DirectMachine struct {
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

	// vals is the residual-call value stack: callAOT pushes the argument
	// values, hands the thunk that window, and pops it. A thunk's args
	// are valid only until it returns; one that keeps them copies.
	vals []heap.Value
}

// guestReturnBlock is the fixed frame-teardown overhead of GuestReturn.
var guestReturnBlock = isa.NewBlock(isa.CC(isa.ALU, 2), isa.CC(isa.Load, 2))

// newDirectMachine returns the pricing for the given cost profile, which
// must have a footprint.
func newDirectMachine(rt *aot.Runtime, p *CostProfile) *DirectMachine {
	if p.Footprint == 0 {
		panic("mtjit: cost profile " + p.Name + " has no footprint")
	}
	m := &DirectMachine{
		RT: rt, S: rt.H.Stream(), P: p,
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

// prim is the overhead of one value operation (unboxing, tag tests),
// retired through one cpu.Machine.OpsLoads.
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

// callAOT pushes args on the value stack, calls thunk on that window
// and pops it. A nested residual call pushes above the window (and may
// move the stack, which leaves the outer window readable where it was).
func (m *DirectMachine) callAOT(fn *aot.Func, thunk Thunk, args []TV) TV {
	base := len(m.vals)
	for _, a := range args {
		m.vals = append(m.vals, a.V)
	}
	m.RT.CallPrologue(fn, len(args))
	window := m.vals[base:len(m.vals):len(m.vals)]
	res := thunk(window)
	if PoisonScratch {
		poison(window)
	}
	m.RT.CallEpilogue(fn)
	m.vals = m.vals[:base]
	return Concrete(res)
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
