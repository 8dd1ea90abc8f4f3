package mtjit

import (
	"math"

	"metajit/internal/heap"
)

// evalPureBin evaluates a pure binary IR op on constant values: the
// optimizer's constant folding. The executor computes the same inline, one
// case per opcode, and TestEveryOpcodeHasAHandler holds the two together.
func evalPureBin(opc Opcode, a, b heap.Value) (heap.Value, bool) {
	switch opc {
	case OpIntAdd:
		return heap.IntVal(a.I + b.I), true
	case OpIntSub:
		return heap.IntVal(a.I - b.I), true
	case OpIntMul:
		return heap.IntVal(a.I * b.I), true
	case OpIntFloorDiv:
		if b.I == 0 {
			return heap.Nil, false
		}
		return heap.IntVal(floorDiv(a.I, b.I)), true
	case OpIntMod:
		if b.I == 0 {
			return heap.Nil, false
		}
		return heap.IntVal(floorMod(a.I, b.I)), true
	case OpIntAnd:
		return heap.IntVal(a.I & b.I), true
	case OpIntOr:
		return heap.IntVal(a.I | b.I), true
	case OpIntXor:
		return heap.IntVal(a.I ^ b.I), true
	case OpIntLshift:
		return heap.IntVal(a.I << uint(b.I&63)), true
	case OpIntRshift:
		return heap.IntVal(a.I >> uint(b.I&63)), true
	case OpIntLt, OpIntLe, OpIntEq, OpIntNe, OpIntGt, OpIntGe:
		return heap.BoolVal(intCmp(opc, a.I, b.I)), true
	case OpFloatAdd, OpFloatSub, OpFloatMul, OpFloatTruediv:
		return heap.FloatVal(floatArith(opc, a.F(), b.F())), true
	case OpFloatLt, OpFloatLe, OpFloatEq, OpFloatNe, OpFloatGt, OpFloatGe:
		return heap.BoolVal(floatCmp(opc, a.F(), b.F())), true
	case OpPtrEq:
		return heap.BoolVal(a.Eq(b)), true
	case OpPtrNe:
		return heap.BoolVal(!a.Eq(b)), true
	}
	return heap.Nil, false
}

// evalPureUn evaluates a pure unary IR op.
func evalPureUn(opc Opcode, a heap.Value) (heap.Value, bool) {
	switch opc {
	case OpIntNeg:
		return heap.IntVal(-a.I), true
	case OpIntIsTrue:
		return heap.BoolVal(a.I != 0), true
	case OpFloatNeg:
		return heap.FloatVal(-a.F()), true
	case OpFloatAbs:
		return heap.FloatVal(math.Abs(a.F())), true
	case OpCastIntToFloat:
		return heap.FloatVal(float64(a.I)), true
	case OpCastFloatToInt:
		return heap.IntVal(int64(a.F())), true
	case OpSameAs:
		return a, true
	}
	return heap.Nil, false
}
