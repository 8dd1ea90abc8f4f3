package aot

import (
	"math"

	"metajit/internal/heap"
	"metajit/internal/isa"
)

// List-strategy and set operations: interpreter-defined AOT helpers
// (Source I in Table III) plus external C functions (Source C). Guest lists
// are heap objects whose Elems hold the items.

var (
	siteListLoop = isa.NewSite()
	siteSetLoop  = isa.NewSite()
)

// ListSetSlice implements dst[start:stop] = src (the
// IntegerListStrategy_setslice entry point of fannkuch).
func (rt *Runtime) ListSetSlice(dst *heap.Obj, start, stop int, src []heap.Value) {
	n := stop - start
	newLen := len(dst.Elems) - n + len(src)
	if newLen > len(dst.Elems) {
		rt.H.GrowElems(dst, newLen)
	}
	tail := append([]heap.Value(nil), dst.Elems[stop:]...)
	for i, v := range src {
		rt.H.WriteElem(dst, start+i, v)
	}
	for i, v := range tail {
		if start+len(src)+i >= len(dst.Elems) {
			break
		}
		rt.H.WriteElem(dst, start+len(src)+i, v)
	}
	if newLen < len(dst.Elems) {
		dst.Elems = dst.Elems[:newLen]
	}
	rt.S.Ops(isa.ALU, 6)
	rt.S.Branch(siteListLoop.PC(), len(src) > 0)
}

// ListSlice returns a copy of src[start:stop] as a fresh list object (the
// fill_in_with_sliced entry point).
func (rt *Runtime) ListSlice(shape *heap.Shape, src *heap.Obj, start, stop int) *heap.Obj {
	if start < 0 {
		start = 0
	}
	if stop > len(src.Elems) {
		stop = len(src.Elems)
	}
	if stop < start {
		stop = start
	}
	out := rt.H.AllocElems(shape, src.Shape.NumFields, stop-start)
	for i := start; i < stop; i++ {
		out.Elems[i-start] = src.Elems[i]
	}
	n := stop - start
	rt.S.Ops(isa.Load, n)
	rt.S.Ops(isa.Store, n)
	rt.S.Ops(isa.ALU, 4)
	return out
}

// ListFind returns the index of v in list, or -1 (the
// IntegerListStrategy_safe_find entry point of hexiom).
func (rt *Runtime) ListFind(list *heap.Obj, v heap.Value) int {
	for i := range list.Elems {
		rt.S.Ops(isa.Load, 1)
		rt.S.Ops(isa.ALU, 1)
		if rt.keyEq(list.Elems[i], v) {
			rt.S.Branch(siteListLoop.PC(), true)
			return i
		}
	}
	rt.S.Branch(siteListLoop.PC(), false)
	return -1
}

// ---- set operations over Dict-backed sets ----

// SetDifference returns a new set dict with entries of a not in b (the
// BytesSetStrategy_difference_unwrapped entry point of meteor_contest).
func (rt *Runtime) SetDifference(a, b *Dict) *Dict {
	out := rt.NewDict()
	rt.DictItems(a, func(k, _ heap.Value) {
		if _, ok := rt.DictGet(b, k); !ok {
			rt.DictSet(out, k, heap.True)
		}
		rt.S.Branch(siteSetLoop.PC(), true)
	})
	return out
}

// SetIsSubset reports whether every key of a is in b (the
// BytesSetStrategy_issubset_unwrapped entry point).
func (rt *Runtime) SetIsSubset(a, b *Dict) bool {
	ok := true
	rt.DictItems(a, func(k, _ heap.Value) {
		if !ok {
			return
		}
		if _, present := rt.DictGet(b, k); !present {
			ok = false
		}
		rt.S.Branch(siteSetLoop.PC(), true)
	})
	return ok
}

// SetUnion returns a new set with keys from both.
func (rt *Runtime) SetUnion(a, b *Dict) *Dict {
	out := rt.NewDict()
	rt.DictItems(a, func(k, _ heap.Value) { rt.DictSet(out, k, heap.True) })
	rt.DictItems(b, func(k, _ heap.Value) { rt.DictSet(out, k, heap.True) })
	return out
}

// ---- external C stdlib (Source C) ----

// CPow is libm pow(): nbody's dominant AOT call.
func (rt *Runtime) CPow(x, y float64) float64 {
	rt.S.Ops(isa.FMul, 12)
	rt.S.Ops(isa.FPU, 18)
	rt.S.Ops(isa.FDiv, 1)
	return math.Pow(x, y)
}

// CSqrt is libm sqrt().
func (rt *Runtime) CSqrt(x float64) float64 {
	rt.S.Ops(isa.FDiv, 1)
	rt.S.Ops(isa.FPU, 2)
	return math.Sqrt(x)
}

// CMemcpy accounts a bulk copy of n bytes (twisted_tcp's memcpy).
func (rt *Runtime) CMemcpy(n int) {
	words := (n + 7) / 8
	rt.S.Ops(isa.Load, words)
	rt.S.Ops(isa.Store, words)
	rt.S.Ops(isa.ALU, 4)
}

// ---- bigint cost wrappers (Source L, rbigint.*) ----

// bigCost emits the per-digit loop cost of a bigint operation.
func (rt *Runtime) bigCost(digits, perDigitALU, perDigitMul int) {
	if digits < 1 {
		digits = 1
	}
	rt.S.Ops(isa.Load, 2*digits)
	rt.S.Ops(isa.Store, digits)
	rt.S.Ops(isa.ALU, perDigitALU*digits)
	if perDigitMul > 0 {
		rt.S.Ops(isa.Mul, perDigitMul*digits)
	}
	rt.S.Branch(siteListLoop.PC(), false)
}

// BigintAdd is rbigint.add.
func (rt *Runtime) BigintAdd(a, b *Big) *Big {
	rt.bigCost(max(a.NumDigits(), b.NumDigits()), 3, 0)
	return BigAdd(a, b)
}

// BigintSub is rbigint.sub.
func (rt *Runtime) BigintSub(a, b *Big) *Big {
	rt.bigCost(max(a.NumDigits(), b.NumDigits()), 3, 0)
	return BigSub(a, b)
}

// BigintMul is rbigint.mul (schoolbook: quadratic digit work).
func (rt *Runtime) BigintMul(a, b *Big) *Big {
	rt.bigCost(max(a.NumDigits()*b.NumDigits(), 1), 2, 1)
	return BigMul(a, b)
}

// BigintDivMod is rbigint.divmod.
func (rt *Runtime) BigintDivMod(a, b *Big) (*Big, *Big) {
	rt.bigCost(max(a.NumDigits()*max(b.NumDigits(), 1), 1), 4, 1)
	return BigDivMod(a, b)
}

// BigintLsh is rbigint.lshift.
func (rt *Runtime) BigintLsh(a *Big, n uint) *Big {
	rt.bigCost(a.NumDigits()+int(n/32), 2, 0)
	return BigLsh(a, n)
}

// BigintRsh is rbigint.rshift.
func (rt *Runtime) BigintRsh(a *Big, n uint) *Big {
	rt.bigCost(a.NumDigits(), 2, 0)
	return BigRsh(a, n)
}

// BigintStr is rbigint.str (repeated division: quadratic).
func (rt *Runtime) BigintStr(a *Big) *heap.Obj {
	rt.bigCost(a.NumDigits()*a.NumDigits()+1, 2, 0)
	rt.S.Ops(isa.Div, a.NumDigits()+1)
	s := a.String()
	out := rt.NewStrN(len(s))
	copy(out.Bytes, s)
	return out
}
