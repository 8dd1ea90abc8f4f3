package pylang

import (
	"metajit/internal/aot"
	"metajit/internal/heap"
	"metajit/internal/isa"
	"metajit/internal/mtjit"
)

// Object-model operations. Type dispatch goes through the Machine so that
// the meta-tracer records the same guards the interpreter's branches imply.

func (vm *VM) isBigObj(v heap.Value) bool {
	return v.Kind == heap.KindRef && v.O.Shape == vm.BigShape
}

func (vm *VM) toBig(v heap.Value) *aot.Big {
	switch {
	case v.Kind == heap.KindInt:
		return aot.BigFromInt64(v.I)
	case vm.isBigObj(v):
		return v.O.Native.(*aot.Big)
	}
	vm.throw("expected integer, got %s", v.String())
	return nil
}

// bigResult normalizes a bigint: values that fit a machine word unbox.
func (vm *VM) bigResult(b *aot.Big) heap.Value {
	if v, ok := b.Int64(); ok {
		return heap.IntVal(v)
	}
	o := vm.H.AllocObj(vm.BigShape, 0)
	o.Native = b
	return heap.RefVal(o)
}

// numKind classifies a value for arithmetic dispatch after guarding.
type numKind uint8

const (
	nkInt numKind = iota
	nkFloat
	nkBig
	nkStr
	nkList
	nkTuple
	nkDict
	nkOther
)

func (vm *VM) classify(m *mtjit.Machine, v mtjit.TV) numKind {
	switch m.KindOf(v) {
	case heap.KindInt, heap.KindBool:
		return nkInt
	case heap.KindFloat:
		return nkFloat
	case heap.KindRef:
		switch v.V.O.Shape {
		case vm.BigShape:
			return nkBig
		case vm.StrShape:
			return nkStr
		case vm.ListShape:
			return nkList
		case vm.TupleShape:
			return nkTuple
		case vm.DictShape:
			return nkDict
		}
	}
	return nkOther
}

func (vm *VM) binary(m *mtjit.Machine, op BinKind, a, b mtjit.TV) mtjit.TV {
	ka := vm.classify(m, a)
	kb := vm.classify(m, b)

	// Bigint paths (either operand big, or int ops that overflow).
	if (ka == nkBig || kb == nkBig) && (ka == nkBig || ka == nkInt) && (kb == nkBig || kb == nkInt) {
		return vm.bigBinary(m, op, a, b)
	}

	switch {
	case ka == nkInt && kb == nkInt:
		switch op {
		case BinAdd:
			res, ovf := m.IntAddOvf(a, b)
			if ovf {
				return vm.bigBinary(m, op, a, b)
			}
			return res
		case BinSub:
			res, ovf := m.IntSubOvf(a, b)
			if ovf {
				return vm.bigBinary(m, op, a, b)
			}
			return res
		case BinMul:
			res, ovf := m.IntMulOvf(a, b)
			if ovf {
				return vm.bigBinary(m, op, a, b)
			}
			return res
		case BinTrueDiv:
			if vm.intDivisorZero(m, b) {
				vm.throw("division by zero")
			}
			return m.FloatArith(mtjit.OpFloatTruediv, m.IntToFloat(a), m.IntToFloat(b))
		case BinFloorDiv:
			if vm.intDivisorZero(m, b) {
				vm.throw("division by zero")
			}
			return m.IntFloorDiv(a, b)
		case BinMod:
			if vm.intDivisorZero(m, b) {
				vm.throw("modulo by zero")
			}
			return m.IntMod(a, b)
		case BinPow:
			return vm.intPow(m, a, b)
		case BinLsh:
			// Shifts that overflow promote to bigint. Every decision goes
			// through the machine so traces re-test it: a trace recorded
			// with a small, in-range shift must deoptimize — not silently
			// truncate — when a later iteration shifts further.
			neg := m.IntCmp(mtjit.OpIntLt, b, m.Const(heap.IntVal(0)))
			if m.Truth(neg, siteShiftNeg.PC()) {
				vm.throw("negative shift count")
			}
			wide := m.IntCmp(mtjit.OpIntGe, b, m.Const(heap.IntVal(63)))
			if m.Truth(wide, siteShiftWide.PC()) {
				return vm.bigBinary(m, op, a, b)
			}
			// In-range count: shift, then shift back — a mismatch means
			// bits were lost and the result needs bigint precision.
			sh := m.IntLshift(a, b)
			back := m.IntRshift(sh, b)
			lossy := m.IntCmp(mtjit.OpIntNe, back, a)
			if m.Truth(lossy, siteShiftOvf.PC()) {
				return vm.bigBinary(m, op, a, b)
			}
			return sh
		case BinRsh:
			return m.IntRshift(a, b)
		case BinAnd:
			return m.IntAnd(a, b)
		case BinOr:
			return m.IntOr(a, b)
		case BinXor:
			return m.IntXor(a, b)
		}
	case (ka == nkFloat || ka == nkInt) && (kb == nkFloat || kb == nkInt):
		fa, fb := a, b
		if ka == nkInt {
			fa = m.IntToFloat(a)
		}
		if kb == nkInt {
			fb = m.IntToFloat(b)
		}
		switch op {
		case BinAdd:
			return m.FloatArith(mtjit.OpFloatAdd, fa, fb)
		case BinSub:
			return m.FloatArith(mtjit.OpFloatSub, fa, fb)
		case BinMul:
			return m.FloatArith(mtjit.OpFloatMul, fa, fb)
		case BinTrueDiv, BinFloorDiv:
			fz := m.FloatCmp(mtjit.OpFloatEq, fb, m.Const(heap.FloatVal(0)))
			if m.Truth(fz, siteDivZero.PC()) {
				vm.throw("float division by zero")
			}
			res := m.FloatArith(mtjit.OpFloatTruediv, fa, fb)
			if op == BinFloorDiv {
				res = m.IntToFloat(m.FloatToInt(res)) // floor for positives
			}
			return res
		case BinMod:
			return m.CallAOT(vm.fnPow, vm.th.floatMod, fa, fb)
		case BinPow:
			return m.CallAOT(vm.fnPow, vm.th.pow, fa, fb)
		}
	case ka == nkStr && kb == nkStr && op == BinAdd:
		return m.CallAOT(vm.fnStrConcat, vm.th.strConcat, a, b)
	case ka == nkStr && kb == nkInt && op == BinMul:
		return m.CallAOT(vm.fnMemcpy, vm.th.strRepeat, a, b)
	case ka == nkList && kb == nkList && op == BinAdd:
		return m.CallAOT(vm.fnListSlice, vm.th.listConcat, a, b)
	case ka == nkList && kb == nkInt && op == BinMul:
		return m.CallAOT(vm.fnListSlice, vm.th.listRepeat, a, b)
	}
	vm.throw("unsupported operand types for binary op %d (%s, %s)", op, a.V, b.V)
	return mtjit.TV{}
}

// intDivisorZero tests an integer divisor against zero through the
// machine, so traces carry a compare+guard re-testing it: a trace
// recorded with a nonzero divisor must deoptimize — not execute int_mod
// on zero — when a later iteration divides by zero.
func (vm *VM) intDivisorZero(m *mtjit.Machine, b mtjit.TV) bool {
	z := m.IntCmp(mtjit.OpIntEq, b, m.Const(heap.IntVal(0)))
	return m.Truth(z, siteDivZero.PC())
}

var (
	siteDivZero   = isa.NewSite()
	siteShiftNeg  = isa.NewSite()
	siteShiftWide = isa.NewSite()
	siteShiftOvf  = isa.NewSite()
	sitePowNeg    = isa.NewSite()
)

// intPow computes a**b: non-negative integer exponents stay exact
// (promoting to bigint on overflow); negative exponents go float.
func (vm *VM) intPow(m *mtjit.Machine, a, b mtjit.TV) mtjit.TV {
	bneg := m.IntCmp(mtjit.OpIntLt, b, m.Const(heap.IntVal(0)))
	if m.Truth(bneg, sitePowNeg.PC()) {
		return m.CallAOT(vm.fnPow, vm.th.pow, m.IntToFloat(a), m.IntToFloat(b))
	}
	return m.CallAOT(vm.fnBigMul, vm.th.intPow, a, b)
}

func (vm *VM) bigBinary(m *mtjit.Machine, op BinKind, a, b mtjit.TV) mtjit.TV {
	switch op {
	case BinAdd:
		return m.CallAOT(vm.fnBigAdd, vm.th.bigAdd, a, b)
	case BinSub:
		return m.CallAOT(vm.fnBigSub, vm.th.bigSub, a, b)
	case BinMul:
		return m.CallAOT(vm.fnBigMul, vm.th.bigMul, a, b)
	case BinFloorDiv:
		return m.CallAOT(vm.fnBigDivMod, vm.th.bigFloorDiv, a, b)
	case BinMod:
		return m.CallAOT(vm.fnBigDivMod, vm.th.bigMod, a, b)
	case BinLsh:
		return m.CallAOT(vm.fnBigLsh, vm.th.bigLsh, a, b)
	case BinRsh:
		return m.CallAOT(vm.fnBigRsh, vm.th.bigRsh, a, b)
	}
	vm.throw("unsupported bigint operation %d", op)
	return mtjit.TV{}
}

// ---- thunks (residual-call bodies; must allocate only through the
// runtime so compiled code can re-execute them, and must not keep their
// args slice, which is the caller's scratch). Callers take them from
// vm.th, where each is bound to the VM once (see thunks.go) ----

func (vm *VM) thunkBigAdd(args []heap.Value) heap.Value {
	return vm.bigResult(vm.RT.BigintAdd(vm.toBig(args[0]), vm.toBig(args[1])))
}

func (vm *VM) thunkBigSub(args []heap.Value) heap.Value {
	return vm.bigResult(vm.RT.BigintSub(vm.toBig(args[0]), vm.toBig(args[1])))
}

func (vm *VM) thunkBigMul(args []heap.Value) heap.Value {
	return vm.bigResult(vm.RT.BigintMul(vm.toBig(args[0]), vm.toBig(args[1])))
}

func (vm *VM) thunkBigFloorDiv(args []heap.Value) heap.Value {
	q, _ := vm.RT.BigintDivMod(vm.toBig(args[0]), vm.toBig(args[1]))
	return vm.bigResult(q)
}

func (vm *VM) thunkBigMod(args []heap.Value) heap.Value {
	_, r := vm.RT.BigintDivMod(vm.toBig(args[0]), vm.toBig(args[1]))
	return vm.bigResult(r)
}

func (vm *VM) thunkBigLsh(args []heap.Value) heap.Value {
	return vm.bigResult(vm.RT.BigintLsh(vm.toBig(args[0]), uint(args[1].I)))
}

func (vm *VM) thunkBigRsh(args []heap.Value) heap.Value {
	return vm.bigResult(vm.RT.BigintRsh(vm.toBig(args[0]), uint(args[1].I)))
}

func (vm *VM) thunkIntPow(args []heap.Value) heap.Value {
	base := vm.toBig(args[0])
	exp := args[1].I
	acc := aot.BigFromInt64(1)
	sq := base
	for exp > 0 {
		if exp&1 == 1 {
			acc = vm.RT.BigintMul(acc, sq)
		}
		exp >>= 1
		if exp > 0 {
			sq = vm.RT.BigintMul(sq, sq)
		}
	}
	return vm.bigResult(acc)
}

func (vm *VM) thunkPow(args []heap.Value) heap.Value {
	return heap.FloatVal(vm.RT.CPow(args[0].F(), args[1].F()))
}

func (vm *VM) thunkFloatMod(args []heap.Value) heap.Value {
	a, b := args[0].F(), args[1].F()
	r := a - float64(int64(a/b))*b
	if r != 0 && (r < 0) != (b < 0) {
		r += b
	}
	vm.RT.S.Ops(isa.FDiv, 1)
	vm.RT.S.Ops(isa.FPU, 3)
	return heap.FloatVal(r)
}

func (vm *VM) thunkStrConcat(args []heap.Value) heap.Value {
	return heap.RefVal(vm.RT.StrConcat(args[0].O, args[1].O))
}

func (vm *VM) thunkStrRepeat(args []heap.Value) heap.Value {
	s := args[0].O.Bytes
	n := int(args[1].I)
	if n < 0 {
		n = 0
	}
	vm.RT.CMemcpy(len(s) * n)
	out := vm.RT.NewStrN(len(s) * n)
	for at := 0; at < len(out.Bytes); at += len(s) {
		copy(out.Bytes[at:], s)
	}
	return heap.RefVal(out)
}

func (vm *VM) thunkListConcat(args []heap.Value) heap.Value {
	a, b := args[0].O, args[1].O
	out := vm.H.AllocElems(vm.ListShape, 0, len(a.Elems)+len(b.Elems))
	copy(out.Elems, a.Elems)
	copy(out.Elems[len(a.Elems):], b.Elems)
	vm.RT.CMemcpy(8 * len(out.Elems))
	return heap.RefVal(out)
}

func (vm *VM) thunkListRepeat(args []heap.Value) heap.Value {
	a := args[0].O
	n := int(args[1].I)
	if n < 0 {
		n = 0
	}
	out := vm.H.AllocElems(vm.ListShape, 0, len(a.Elems)*n)
	for i := 0; i < n; i++ {
		copy(out.Elems[i*len(a.Elems):], a.Elems)
	}
	vm.RT.CMemcpy(8 * len(out.Elems))
	return heap.RefVal(out)
}

// ---- comparisons ----

func (vm *VM) compare(m *mtjit.Machine, op CmpKind, a, b mtjit.TV) mtjit.TV {
	switch op {
	case CmpIs:
		return m.PtrEq(a, b)
	case CmpIn:
		return vm.contains(m, b, a)
	case CmpNotIn:
		t := vm.contains(m, b, a)
		return m.Const(heap.BoolVal(!t.V.Truthy()))
	}
	ka := vm.classify(m, a)
	kb := vm.classify(m, b)
	switch {
	case ka == nkInt && kb == nkInt:
		return m.IntCmp(cmpToIR(op), a, b)
	case (ka == nkFloat || ka == nkInt) && (kb == nkFloat || kb == nkInt):
		fa, fb := a, b
		if ka == nkInt {
			fa = m.IntToFloat(a)
		}
		if kb == nkInt {
			fb = m.IntToFloat(b)
		}
		return m.FloatCmp(cmpToFloatIR(op), fa, fb)
	case ka == nkBig || kb == nkBig:
		return m.CallAOT(vm.fnBigSub, vm.th.cmpBig[op], a, b)
	case ka == nkStr && kb == nkStr:
		return m.CallAOT(vm.fnStrEq, vm.th.cmpStr[op], a, b)
	case op == CmpEq:
		return m.PtrEq(a, b)
	case op == CmpNe:
		t := m.PtrEq(a, b)
		return m.Const(heap.BoolVal(!t.V.Truthy()))
	}
	vm.throw("unsupported comparison")
	return mtjit.TV{}
}

func (vm *VM) thunkCmpBig(op CmpKind, args []heap.Value) heap.Value {
	c := vm.toBig(args[0]).Cmp(vm.toBig(args[1]))
	vm.RT.S.Ops(isa.ALU, 8)
	return heap.BoolVal(cmpHolds(op, c))
}

func (vm *VM) thunkCmpStr(op CmpKind, args []heap.Value) heap.Value {
	x, y := string(args[0].O.Bytes), string(args[1].O.Bytes)
	n := min(len(x), len(y))
	vm.RT.S.Ops(isa.Load, n/4+2)
	vm.RT.S.Ops(isa.ALU, n/4+2)
	c := 0
	if x < y {
		c = -1
	} else if x > y {
		c = 1
	}
	return heap.BoolVal(cmpHolds(op, c))
}

func cmpHolds(op CmpKind, c int) bool {
	switch op {
	case CmpLt:
		return c < 0
	case CmpLe:
		return c <= 0
	case CmpGt:
		return c > 0
	case CmpGe:
		return c >= 0
	case CmpEq:
		return c == 0
	case CmpNe:
		return c != 0
	}
	return false
}

func cmpToIR(op CmpKind) mtjit.Opcode {
	switch op {
	case CmpLt:
		return mtjit.OpIntLt
	case CmpLe:
		return mtjit.OpIntLe
	case CmpGt:
		return mtjit.OpIntGt
	case CmpGe:
		return mtjit.OpIntGe
	case CmpEq:
		return mtjit.OpIntEq
	case CmpNe:
		return mtjit.OpIntNe
	}
	panic("pylang: bad int comparison")
}

func cmpToFloatIR(op CmpKind) mtjit.Opcode {
	switch op {
	case CmpLt:
		return mtjit.OpFloatLt
	case CmpLe:
		return mtjit.OpFloatLe
	case CmpGt:
		return mtjit.OpFloatGt
	case CmpGe:
		return mtjit.OpFloatGe
	case CmpEq:
		return mtjit.OpFloatEq
	case CmpNe:
		return mtjit.OpFloatNe
	}
	panic("pylang: bad float comparison")
}

// contains implements "needle in container".
func (vm *VM) contains(m *mtjit.Machine, container, needle mtjit.TV) mtjit.TV {
	switch vm.classify(m, container) {
	case nkDict:
		return m.CallAOT(vm.fnDictLookup, vm.th.dictContains, container, needle)
	case nkList, nkTuple:
		return m.CallAOT(vm.fnListFind, vm.th.listContains, container, needle)
	case nkStr:
		return m.CallAOT(vm.fnStrFind, vm.th.strContains, container, needle)
	}
	vm.throw("argument of 'in' is not a container")
	return mtjit.TV{}
}

func (vm *VM) thunkDictContains(args []heap.Value) heap.Value {
	_, ok := vm.RT.DictGet(args[0].O.Native.(*aot.Dict), args[1])
	return heap.BoolVal(ok)
}

func (vm *VM) thunkListContains(args []heap.Value) heap.Value {
	i := vm.RT.ListFind(args[0].O, args[1])
	return heap.BoolVal(i >= 0)
}

func (vm *VM) thunkStrContains(args []heap.Value) heap.Value {
	return heap.BoolVal(vm.RT.StrFind(args[0].O, args[1].O, 0) >= 0)
}

func (vm *VM) unaryNeg(m *mtjit.Machine, a mtjit.TV) mtjit.TV {
	switch vm.classify(m, a) {
	case nkInt:
		return m.IntNeg(a)
	case nkFloat:
		return m.FloatNeg(a)
	case nkBig:
		return m.CallAOT(vm.fnBigSub, vm.th.bigNeg, a)
	}
	vm.throw("bad operand for unary minus")
	return mtjit.TV{}
}

func (vm *VM) thunkBigNeg(args []heap.Value) heap.Value {
	b := vm.toBig(args[0])
	return vm.bigResult(vm.RT.BigintSub(aot.BigFromInt64(0), b))
}

// truthy evaluates guest truthiness, recording the guard.
func (vm *VM) truthy(m *mtjit.Machine, v mtjit.TV, site uint64) bool {
	switch vm.classify(m, v) {
	case nkList, nkTuple:
		n := m.ArrayLen(v)
		t := m.IntCmp(mtjit.OpIntGt, n, m.Const(heap.IntVal(0)))
		return m.Truth(t, site)
	case nkStr:
		n := m.StrLen(v)
		t := m.IntCmp(mtjit.OpIntGt, n, m.Const(heap.IntVal(0)))
		return m.Truth(t, site)
	case nkDict:
		n := vm.dictLen(m, v)
		t := m.IntCmp(mtjit.OpIntGt, n, m.Const(heap.IntVal(0)))
		return m.Truth(t, site)
	case nkBig:
		return !v.V.O.Native.(*aot.Big).IsZero()
	case nkOther:
		// Instances and functions are truthy (after the class guard).
		return v.V.Kind == heap.KindRef || v.V.Truthy()
	}
	return m.Truth(v, site)
}

// ---- indexing, slices, length, iteration ----

// normIndex bounds-checks and normalizes a sequence index through the
// machine, so traces carry the same compare+guard pattern PyPy emits.
func (vm *VM) normIndex(m *mtjit.Machine, idx, length mtjit.TV, what string) mtjit.TV {
	neg := m.IntCmp(mtjit.OpIntLt, idx, m.Const(heap.IntVal(0)))
	if m.Truth(neg, siteIndexNeg.PC()) {
		idx = m.IntAdd(idx, length)
	}
	bad := m.IntCmp(mtjit.OpIntGe, idx, length)
	if m.Truth(bad, siteIndexBound.PC()) || idx.V.I < 0 {
		vm.throw("%s index out of range (%d/%d)", what, idx.V.I, length.V.I)
	}
	return idx
}

var (
	siteIndexNeg   = isa.NewSite()
	siteIndexBound = isa.NewSite()
)

func (vm *VM) index(m *mtjit.Machine, o, i mtjit.TV) mtjit.TV {
	switch vm.classify(m, o) {
	case nkList, nkTuple:
		i = vm.normIndex(m, i, m.ArrayLen(o), "list")
		return m.GetElem(o, i)
	case nkStr:
		i = vm.normIndex(m, i, m.StrLen(o), "string")
		ch := m.StrGetItem(o, i)
		return m.GetElem(m.Const(heap.RefVal(vm.charTab)), ch)
	case nkDict:
		return m.CallAOT(vm.fnDictLookup, vm.th.dictIndex, o, i)
	}
	vm.throw("object is not subscriptable")
	return mtjit.TV{}
}

func (vm *VM) thunkDictIndex(args []heap.Value) heap.Value {
	v, ok := vm.RT.DictGet(args[0].O.Native.(*aot.Dict), args[1])
	if !ok {
		vm.throw("KeyError: %s", args[1].String())
	}
	return v
}

func (vm *VM) storeIndex(m *mtjit.Machine, o, i, v mtjit.TV) {
	switch vm.classify(m, o) {
	case nkList:
		i = vm.normIndex(m, i, m.ArrayLen(o), "list")
		m.SetElem(o, i, v)
	case nkDict:
		vm.dictSet(m, o, i, v)
	default:
		vm.throw("object does not support item assignment")
	}
}

func (vm *VM) dictSet(m *mtjit.Machine, d, k, v mtjit.TV) {
	m.CallAOT(vm.fnDictSet, vm.th.dictSet, d, k, v)
}

func (vm *VM) thunkDictSet(args []heap.Value) heap.Value {
	dict := args[0].O.Native.(*aot.Dict)
	vm.RT.DictSet(dict, args[1], args[2])
	vm.H.Barrier(args[0].O, args[1])
	vm.H.Barrier(args[0].O, args[2])
	return heap.Nil
}

func (vm *VM) dictLen(m *mtjit.Machine, d mtjit.TV) mtjit.TV {
	return m.CallAOT(vm.fnDictLen, vm.th.dictLen, d)
}

func (vm *VM) thunkDictLen(args []heap.Value) heap.Value {
	vm.RT.S.Ops(isa.Load, 1)
	return heap.IntVal(int64(args[0].O.Native.(*aot.Dict).Len()))
}

func (vm *VM) newDict(m *mtjit.Machine) mtjit.TV {
	return m.CallAOT(vm.fnDictNew, vm.th.dictNew)
}

func (vm *VM) thunkDictNew([]heap.Value) heap.Value {
	o := vm.H.AllocObj(vm.DictShape, 0)
	o.Native = vm.RT.NewDict()
	return heap.RefVal(o)
}

// sliceBounds resolves lo/hi (hi == -1 means "to the end") against length.
func sliceBounds(lo, hi, n int64) (int64, int64) {
	if hi == -1 {
		hi = n
	}
	if lo < 0 {
		lo += n
	}
	if hi < 0 {
		hi += n
	}
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

func (vm *VM) slice(m *mtjit.Machine, o, lo, hi mtjit.TV) mtjit.TV {
	switch vm.classify(m, o) {
	case nkList, nkTuple:
		return m.CallAOT(vm.fnListSlice, vm.th.listSlice, o, lo, hi)
	case nkStr:
		return m.CallAOT(vm.fnStrSlice, vm.th.strSlice, o, lo, hi)
	}
	vm.throw("object is not sliceable")
	return mtjit.TV{}
}

func (vm *VM) thunkListSlice(args []heap.Value) heap.Value {
	l, h := sliceBounds(args[1].I, args[2].I, int64(len(args[0].O.Elems)))
	return heap.RefVal(vm.RT.ListSlice(vm.ListShape, args[0].O, int(l), int(h)))
}

func (vm *VM) thunkStrSlice(args []heap.Value) heap.Value {
	l, h := sliceBounds(args[1].I, args[2].I, int64(len(args[0].O.Bytes)))
	vm.RT.CMemcpy(int(h - l))
	return heap.RefVal(vm.RT.NewStr(args[0].O.Bytes[l:h]))
}

func (vm *VM) storeSlice(m *mtjit.Machine, o, lo, hi, v mtjit.TV) {
	if vm.classify(m, o) != nkList || vm.classify(m, v) != nkList {
		vm.throw("slice assignment requires lists")
	}
	m.CallAOT(vm.fnListSetSlice, vm.th.listSetSlice, o, lo, hi, v)
}

func (vm *VM) thunkListSetSlice(args []heap.Value) heap.Value {
	l, h := sliceBounds(args[1].I, args[2].I, int64(len(args[0].O.Elems)))
	src := append([]heap.Value(nil), args[3].O.Elems...)
	vm.RT.ListSetSlice(args[0].O, int(l), int(h), src)
	return heap.Nil
}

func (vm *VM) length(m *mtjit.Machine, o mtjit.TV) mtjit.TV {
	switch vm.classify(m, o) {
	case nkList, nkTuple:
		return m.ArrayLen(o)
	case nkStr:
		return m.StrLen(o)
	case nkDict:
		return vm.dictLen(m, o)
	}
	vm.throw("object has no len()")
	return mtjit.TV{}
}

func (vm *VM) iterPrep(m *mtjit.Machine, o mtjit.TV) mtjit.TV {
	switch vm.classify(m, o) {
	case nkList, nkTuple, nkStr:
		return o
	case nkDict:
		return m.CallAOT(vm.fnDictKeys, vm.th.dictKeys, o)
	}
	vm.throw("object is not iterable")
	return mtjit.TV{}
}

func (vm *VM) thunkDictKeys(args []heap.Value) heap.Value {
	d := args[0].O.Native.(*aot.Dict)
	out := vm.H.AllocElems(vm.ListShape, 0, d.Len())
	i := 0
	vm.RT.DictItems(d, func(k, _ heap.Value) {
		out.Elems[i] = k
		i++
	})
	return heap.RefVal(out)
}

// ---- attributes ----

func (vm *VM) attrCost() {
	vm.H.Stream().Ops(isa.ALU, 5)
	vm.H.Stream().Ops(isa.Load, 2)
}

func (vm *VM) loadAttr(m *mtjit.Machine, f *Frame, name string) {
	obj := f.pop()
	sh := m.ShapeOf(obj)
	vm.attrCost()
	if cls, ok := vm.classes[sh]; ok {
		if idx, ok2 := cls.fieldIndex(name); ok2 {
			if idx >= len(obj.V.O.Fields) {
				vm.H.GrowFields(obj.V.O, idx+1)
			}
			f.push(m.GetField(obj, idx))
			return
		}
		if mo, ok2 := cls.lookupMethod(name); ok2 {
			bound := m.NewObj(vm.BoundShape, 2)
			m.SetField(bound, 0, obj)
			m.SetField(bound, 1, m.Const(heap.RefVal(mo)))
			f.push(bound)
			return
		}
		vm.throw("%s object has no attribute %q", cls.Name, name)
	}
	if bm := vm.builtinMethod(sh, name); bm != nil {
		bound := m.NewObj(vm.BoundShape, 2)
		m.SetField(bound, 0, obj)
		m.SetField(bound, 1, m.Const(heap.RefVal(bm)))
		f.push(bound)
		return
	}
	vm.throw("%s object has no attribute %q", sh.Name, name)
}

func (vm *VM) storeAttr(m *mtjit.Machine, f *Frame, name string) {
	v := f.pop()
	obj := f.pop()
	sh := m.ShapeOf(obj)
	cls, ok := vm.classes[sh]
	if !ok {
		vm.throw("cannot set attribute on %s", sh.Name)
	}
	vm.attrCost()
	idx := cls.ensureField(name)
	if idx >= len(obj.V.O.Fields) {
		vm.H.GrowFields(obj.V.O, idx+1)
	}
	m.SetField(obj, idx, v)
}
