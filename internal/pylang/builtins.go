package pylang

import (
	"fmt"
	"sort"
	"strconv"

	"metajit/internal/aot"
	"metajit/internal/heap"
	"metajit/internal/isa"
	"metajit/internal/mtjit"
)

// newBuiltin wraps a native function in a callable guest object.
func (vm *VM) newBuiltin(name string, fn func(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV) *heap.Obj {
	o := vm.H.AllocObj(vm.BuiltinShape, 0)
	o.Native = &Builtin{Name: name, Fn: fn}
	return o
}

func (vm *VM) setupBuiltins() {
	def := func(name string, fn func(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV) {
		vm.builtins[name] = vm.newBuiltin(name, fn)
	}

	def("print", biPrint)
	def("abs", biAbs)
	def("min", biMin)
	def("max", biMax)
	def("ord", biOrd)
	def("chr", biChr)
	def("str", biStr)
	def("int", biInt)
	def("float", biFloat)
	def("divmod", biDivmod)
	def("sqrt", biSqrt)
	def("pow", biPow)
	// Application-level cross-layer annotations (Section IV of the
	// paper): guest code can mark events of interest that machine-level
	// tools intercept, e.g. annotate("request_start").
	def("annotate", biAnnotate)
}

func biAnnotate(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	argcheck(vm, "annotate", args, 1, 2)
	if vm.classify(m, args[0]) != nkStr {
		vm.throw("annotate() requires a tag name string")
	}
	name := "app." + string(args[0].V.O.Bytes)
	tag := vm.Mach.Registry().Define(name)
	arg := uint64(0)
	if len(args) == 2 {
		arg = uint64(args[1].V.I)
	}
	// The annotation is a real tagged nop in the instruction stream;
	// while tracing it is recorded and lowered into the compiled code,
	// exactly as the paper's methodology requires.
	m.Annotate(tag, arg)
	return m.Const(heap.Nil)
}

func argcheck(vm *VM, name string, args []mtjit.TV, lo, hi int) {
	if len(args) < lo || len(args) > hi {
		vm.throw("%s() takes %d-%d arguments (%d given)", name, lo, hi, len(args))
	}
}

// Format renders a guest value like Python's str().
func (vm *VM) Format(v heap.Value) string {
	switch v.Kind {
	case heap.KindNil:
		return "None"
	case heap.KindBool:
		if v.I != 0 {
			return "True"
		}
		return "False"
	case heap.KindInt:
		return strconv.FormatInt(v.I, 10)
	case heap.KindFloat:
		s := strconv.FormatFloat(v.F(), 'g', 12, 64)
		if !hasDotOrExp(s) {
			s += ".0"
		}
		return s
	case heap.KindRef:
		switch v.O.Shape {
		case vm.StrShape:
			return string(v.O.Bytes)
		case vm.BigShape:
			return v.O.Native.(*aot.Big).String()
		case vm.ListShape, vm.TupleShape:
			open, close := "[", "]"
			if v.O.Shape == vm.TupleShape {
				open, close = "(", ")"
			}
			s := open
			for i, e := range v.O.Elems {
				if i > 0 {
					s += ", "
				}
				if e.Kind == heap.KindRef && e.O != nil && e.O.Shape == vm.StrShape {
					s += "'" + string(e.O.Bytes) + "'"
				} else {
					s += vm.Format(e)
				}
			}
			return s + close
		case vm.DictShape:
			d := v.O.Native.(*aot.Dict)
			s := "{"
			first := true
			vm.RT.DictItems(d, func(k, val heap.Value) {
				if !first {
					s += ", "
				}
				first = false
				s += vm.Format(k) + ": " + vm.Format(val)
			})
			return s + "}"
		default:
			if cls, ok := vm.classes[v.O.Shape]; ok {
				return fmt.Sprintf("<%s instance>", cls.Name)
			}
			return fmt.Sprintf("<%s>", v.O.Shape.Name)
		}
	}
	return "?"
}

func hasDotOrExp(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '.' || s[i] == 'e' || s[i] == 'E' || s[i] == 'n' || s[i] == 'i' {
			return true
		}
	}
	return false
}

func biPrint(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	return m.CallAOT(vm.fnMemcpy, vm.th.print, args...)
}

func (vm *VM) thunkPrint(vals []heap.Value) heap.Value {
	out := ""
	for i, v := range vals {
		if i > 0 {
			out += " "
		}
		out += vm.Format(v)
	}
	out += "\n"
	vm.RT.S.Ops(isa.Store, len(out)/8+1)
	vm.Output.WriteString(out)
	return heap.Nil
}

func biAbs(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	argcheck(vm, "abs", args, 1, 1)
	a := args[0]
	switch vm.classify(m, a) {
	case nkInt:
		neg := m.IntCmp(mtjit.OpIntLt, a, m.Const(heap.IntVal(0)))
		if m.Truth(neg, siteAbs.PC()) {
			return m.IntNeg(a)
		}
		return a
	case nkFloat:
		neg := m.FloatCmp(mtjit.OpFloatLt, a, m.Const(heap.FloatVal(0)))
		if m.Truth(neg, siteAbs.PC()) {
			return m.FloatNeg(a)
		}
		return a
	}
	vm.throw("abs() requires a number")
	return mtjit.TV{}
}

var siteAbs = isa.NewSite()

func minmax(vm *VM, m *mtjit.Machine, args []mtjit.TV, name string, wantLess bool) mtjit.TV {
	argcheck(vm, name, args, 2, 4)
	best := args[0]
	for _, a := range args[1:] {
		var less mtjit.TV
		if vm.classify(m, a) == nkFloat || vm.classify(m, best) == nkFloat {
			fa, fb := a, best
			if vm.classify(m, fa) == nkInt {
				fa = m.IntToFloat(fa)
			}
			if vm.classify(m, fb) == nkInt {
				fb = m.IntToFloat(fb)
			}
			less = m.FloatCmp(mtjit.OpFloatLt, fa, fb)
		} else {
			less = m.IntCmp(mtjit.OpIntLt, a, best)
		}
		if m.Truth(less, siteAbs.PC()+4) == wantLess {
			best = a
		}
	}
	return best
}

func biMin(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	return minmax(vm, m, args, "min", true)
}

func biMax(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	return minmax(vm, m, args, "max", false)
}

func biOrd(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	argcheck(vm, "ord", args, 1, 1)
	if vm.classify(m, args[0]) != nkStr {
		vm.throw("ord() requires a string")
	}
	return m.StrGetItem(args[0], m.Const(heap.IntVal(0)))
}

func biChr(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	argcheck(vm, "chr", args, 1, 1)
	return m.GetElem(m.Const(heap.RefVal(vm.charTab)), args[0])
}

func biStr(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	argcheck(vm, "str", args, 1, 1)
	a := args[0]
	switch vm.classify(m, a) {
	case nkStr:
		return a
	case nkInt:
		return m.CallAOT(vm.fnInt2Dec, vm.th.intStr, a)
	case nkBig:
		return m.CallAOT(vm.fnBigStr, vm.th.bigStr, a)
	default:
		return m.CallAOT(vm.fnInt2Dec, vm.th.formatStr, a)
	}
}

func (vm *VM) thunkIntStr(vals []heap.Value) heap.Value {
	return heap.RefVal(vm.RT.Int2Dec(vals[0].I))
}

func (vm *VM) thunkBigStr(vals []heap.Value) heap.Value {
	return heap.RefVal(vm.RT.BigintStr(vals[0].O.Native.(*aot.Big)))
}

func (vm *VM) thunkFormatStr(vals []heap.Value) heap.Value {
	s := vm.Format(vals[0])
	vm.RT.S.Ops(isa.Store, len(s)/8+1)
	out := vm.RT.NewStrN(len(s))
	copy(out.Bytes, s)
	return heap.RefVal(out)
}

func biInt(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	argcheck(vm, "int", args, 1, 1)
	a := args[0]
	switch vm.classify(m, a) {
	case nkInt, nkBig:
		return a
	case nkFloat:
		return m.FloatToInt(a)
	case nkStr:
		return m.CallAOT(vm.fnStr2Int, vm.th.strToInt, a)
	}
	vm.throw("int() argument must be a number or string")
	return mtjit.TV{}
}

func (vm *VM) thunkStrToInt(vals []heap.Value) heap.Value {
	v, ok := vm.RT.StrToInt(vals[0].O)
	if !ok {
		vm.throw("invalid literal for int(): %q", vals[0].O.Bytes)
	}
	return heap.IntVal(v)
}

func biFloat(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	argcheck(vm, "float", args, 1, 1)
	a := args[0]
	switch vm.classify(m, a) {
	case nkFloat:
		return a
	case nkInt:
		return m.IntToFloat(a)
	case nkStr:
		return m.CallAOT(vm.fnStr2Int, vm.th.strToFloat, a)
	}
	vm.throw("float() argument must be a number or string")
	return mtjit.TV{}
}

func (vm *VM) thunkStrToFloat(vals []heap.Value) heap.Value {
	f, err := strconv.ParseFloat(string(vals[0].O.Bytes), 64)
	if err != nil {
		vm.throw("invalid literal for float(): %q", vals[0].O.Bytes)
	}
	vm.RT.S.Ops(isa.ALU, 3*len(vals[0].O.Bytes))
	return heap.FloatVal(f)
}

func biDivmod(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	argcheck(vm, "divmod", args, 2, 2)
	a, b := args[0], args[1]
	ka, kb := vm.classify(m, a), vm.classify(m, b)
	if ka == nkInt && kb == nkInt {
		if b.V.I == 0 {
			vm.throw("divmod by zero")
		}
		q := m.IntFloorDiv(a, b)
		r := m.IntMod(a, b)
		tup := m.NewArray(vm.TupleShape, 0, 2)
		m.SetElem(tup, m.Const(heap.IntVal(0)), q)
		m.SetElem(tup, m.Const(heap.IntVal(1)), r)
		return tup
	}
	return m.CallAOT(vm.fnBigDivMod, vm.th.bigDivmod, a, b)
}

func (vm *VM) thunkBigDivmod(vals []heap.Value) heap.Value {
	q, r := vm.RT.BigintDivMod(vm.toBig(vals[0]), vm.toBig(vals[1]))
	tup := vm.H.AllocElems(vm.TupleShape, 0, 2)
	tup.Elems[0] = vm.bigResult(q)
	tup.Elems[1] = vm.bigResult(r)
	return heap.RefVal(tup)
}

func biSqrt(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	argcheck(vm, "sqrt", args, 1, 1)
	a := args[0]
	if vm.classify(m, a) == nkInt {
		a = m.IntToFloat(a)
	}
	return m.CallAOT(vm.fnSqrt, vm.th.sqrt, a)
}

func (vm *VM) thunkSqrt(vals []heap.Value) heap.Value {
	return heap.FloatVal(vm.RT.CSqrt(vals[0].F()))
}

func biPow(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	argcheck(vm, "pow", args, 2, 2)
	return vm.binary(m, BinPow, args[0], args[1])
}

// ---- built-in methods on list/str/dict/tuple ----

// methodKey names a built-in type's method without building a string.
type methodKey struct {
	sh   *heap.Shape
	name string
}

// builtinMethod returns (and caches) the method object for a built-in
// type. The object also goes into vm.builtins under "Shape.name", which is
// the sorted root set the collector walks.
func (vm *VM) builtinMethod(sh *heap.Shape, name string) *heap.Obj {
	if o, ok := vm.builtinMethods[methodKey{sh, name}]; ok {
		return o
	}
	fn := vm.resolveBuiltinMethod(sh, name)
	if fn == nil {
		return nil
	}
	key := sh.Name + "." + name
	o := vm.newBuiltin(key, fn)
	vm.builtins[key] = o
	vm.builtinMethods[methodKey{sh, name}] = o
	return o
}

func (vm *VM) resolveBuiltinMethod(sh *heap.Shape, name string) func(*VM, *mtjit.Machine, []mtjit.TV) mtjit.TV {
	switch sh {
	case vm.ListShape:
		switch name {
		case "append":
			return lmAppend
		case "pop":
			return lmPop
		case "insert":
			return lmInsert
		case "index":
			return lmIndex
		case "extend":
			return lmExtend
		case "sort":
			return lmSort
		case "reverse":
			return lmReverse
		}
	case vm.StrShape:
		switch name {
		case "join":
			return smJoin
		case "split":
			return smSplit
		case "replace":
			return smReplace
		case "find":
			return smFind
		case "startswith":
			return smStartswith
		case "endswith":
			return smEndswith
		case "upper":
			return smUpper
		case "lower":
			return smLower
		case "strip":
			return smStrip
		case "encode_ascii":
			return smEncodeASCII
		}
	case vm.DictShape:
		switch name {
		case "get":
			return dmGet
		case "keys":
			return dmKeys
		case "values":
			return dmValues
		case "pop":
			return dmPop
		}
	}
	return nil
}

func lmAppend(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	return m.CallAOT(vm.fnListSetSlice, vm.th.listAppend, args[0], args[1])
}

func (vm *VM) thunkListAppend(vals []heap.Value) heap.Value {
	vm.H.AppendElem(vals[0].O, vals[1])
	return heap.Nil
}

func lmPop(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	idxTV := m.Const(heap.IntVal(-1))
	if len(args) > 1 {
		idxTV = args[1]
	}
	return m.CallAOT(vm.fnListSetSlice, vm.th.listPop, args[0], idxTV)
}

func (vm *VM) thunkListPop(vals []heap.Value) heap.Value {
	o := vals[0].O
	n := len(o.Elems)
	if n == 0 {
		vm.throw("pop from empty list")
	}
	i := vals[1].I
	if i < 0 {
		i += int64(n)
	}
	if i < 0 || i >= int64(n) {
		vm.throw("pop index out of range")
	}
	v := o.Elems[i]
	copy(o.Elems[i:], o.Elems[i+1:])
	o.Elems = o.Elems[:n-1]
	vm.RT.CMemcpy(8 * (n - int(i)))
	return v
}

func lmInsert(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	return m.CallAOT(vm.fnListSetSlice, vm.th.listInsert, args[0], args[1], args[2])
}

func (vm *VM) thunkListInsert(vals []heap.Value) heap.Value {
	o := vals[0].O
	i := vals[1].I
	if i < 0 {
		i += int64(len(o.Elems))
	}
	if i < 0 {
		i = 0
	}
	if i > int64(len(o.Elems)) {
		i = int64(len(o.Elems))
	}
	vm.H.AppendElem(o, heap.Nil)
	copy(o.Elems[i+1:], o.Elems[i:])
	o.Elems[i] = vals[2]
	vm.H.Barrier(o, vals[2])
	vm.RT.CMemcpy(8 * (len(o.Elems) - int(i)))
	return heap.Nil
}

func lmIndex(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	return m.CallAOT(vm.fnListFind, vm.th.listIndex, args[0], args[1])
}

func (vm *VM) thunkListIndex(vals []heap.Value) heap.Value {
	i := vm.RT.ListFind(vals[0].O, vals[1])
	if i < 0 {
		vm.throw("ValueError: value not in list")
	}
	return heap.IntVal(int64(i))
}

func lmExtend(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	return m.CallAOT(vm.fnListSetSlice, vm.th.listExtend, args[0], args[1])
}

func (vm *VM) thunkListExtend(vals []heap.Value) heap.Value {
	dst, src := vals[0].O, vals[1].O
	// By index, not by range: when dst is src, growth zeroes the array
	// part a range would still be reading (heap.regrow).
	for i, n := 0, len(src.Elems); i < n; i++ {
		vm.H.AppendElem(dst, src.Elems[i])
	}
	return heap.Nil
}

func lmSort(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	return m.CallAOT(vm.fnListSort, vm.th.listSort, args[0])
}

func (vm *VM) thunkListSort(vals []heap.Value) heap.Value {
	o := vals[0].O
	n := len(o.Elems)
	sort.SliceStable(o.Elems, func(i, j int) bool {
		return vm.valueLess(o.Elems[i], o.Elems[j])
	})
	cost := n
	if n > 1 {
		cost = n * bits(n)
	}
	vm.RT.S.Ops(isa.Load, 2*cost)
	vm.RT.S.Ops(isa.ALU, 3*cost)
	vm.RT.S.Ops(isa.Store, cost)
	return heap.Nil
}

func bits(n int) int {
	b := 0
	for n > 0 {
		b++
		n >>= 1
	}
	return b
}

// valueLess is the runtime's total order for sorting.
func (vm *VM) valueLess(a, b heap.Value) bool {
	if a.Kind == heap.KindInt && b.Kind == heap.KindInt {
		return a.I < b.I
	}
	if a.Kind == heap.KindFloat || b.Kind == heap.KindFloat {
		af, bf := a.F(), b.F()
		if a.Kind == heap.KindInt {
			af = float64(a.I)
		}
		if b.Kind == heap.KindInt {
			bf = float64(b.I)
		}
		return af < bf
	}
	if a.Kind == heap.KindRef && b.Kind == heap.KindRef &&
		a.O.Shape == vm.StrShape && b.O.Shape == vm.StrShape {
		return string(a.O.Bytes) < string(b.O.Bytes)
	}
	vm.throw("unorderable types in sort")
	return false
}

func lmReverse(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	return m.CallAOT(vm.fnListSetSlice, vm.th.listReverse, args[0])
}

func (vm *VM) thunkListReverse(vals []heap.Value) heap.Value {
	e := vals[0].O.Elems
	for i, j := 0, len(e)-1; i < j; i, j = i+1, j-1 {
		e[i], e[j] = e[j], e[i]
	}
	vm.RT.CMemcpy(8 * len(e))
	return heap.Nil
}

func smJoin(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	return m.CallAOT(vm.fnStrJoin, vm.th.strJoin, args[0], args[1])
}

func (vm *VM) thunkStrJoin(vals []heap.Value) heap.Value {
	sep := vals[0].O
	list := vals[1].O
	for _, e := range list.Elems {
		if e.Kind != heap.KindRef || e.O.Shape != vm.StrShape {
			vm.throw("join() requires strings")
		}
	}
	return heap.RefVal(vm.RT.StrJoin(sep, list.Elems))
}

func smSplit(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	sep := m.Const(heap.RefVal(vm.Intern(" ")))
	if len(args) > 1 {
		sep = args[1]
	}
	return m.CallAOT(vm.fnStrSplit, vm.th.strSplit, args[0], sep)
}

func (vm *VM) thunkStrSplit(vals []heap.Value) heap.Value {
	parts := vm.RT.StrSplitChar(vals[0].O, vals[1].O.Bytes[0])
	out := vm.H.AllocElems(vm.ListShape, 0, len(parts))
	for i, p := range parts {
		out.Elems[i] = heap.RefVal(p)
	}
	return heap.RefVal(out)
}

func smReplace(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	return m.CallAOT(vm.fnStrReplace, vm.th.strReplace, args[0], args[1], args[2])
}

func (vm *VM) thunkStrReplace(vals []heap.Value) heap.Value {
	return heap.RefVal(vm.RT.StrReplace(vals[0].O, vals[1].O, vals[2].O))
}

func smFind(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	start := m.Const(heap.IntVal(0))
	if len(args) > 2 {
		start = args[2]
	}
	return m.CallAOT(vm.fnStrFindChar, vm.th.strFind, args[0], args[1], start)
}

func (vm *VM) thunkStrFind(vals []heap.Value) heap.Value {
	if len(vals[1].O.Bytes) == 1 {
		return heap.IntVal(int64(vm.RT.StrFindChar(vals[0].O, vals[1].O.Bytes[0], int(vals[2].I))))
	}
	return heap.IntVal(int64(vm.RT.StrFind(vals[0].O, vals[1].O, int(vals[2].I))))
}

func smStartswith(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	return m.CallAOT(vm.fnStrFind, vm.th.strStartswith, args[0], args[1])
}

func (vm *VM) thunkStrStartswith(vals []heap.Value) heap.Value {
	s, p := vals[0].O.Bytes, vals[1].O.Bytes
	vm.RT.S.Ops(isa.Load, len(p)/4+2)
	return heap.BoolVal(len(s) >= len(p) && string(s[:len(p)]) == string(p))
}

func smEndswith(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	return m.CallAOT(vm.fnStrFind, vm.th.strEndswith, args[0], args[1])
}

func (vm *VM) thunkStrEndswith(vals []heap.Value) heap.Value {
	s, p := vals[0].O.Bytes, vals[1].O.Bytes
	vm.RT.S.Ops(isa.Load, len(p)/4+2)
	return heap.BoolVal(len(s) >= len(p) && string(s[len(s)-len(p):]) == string(p))
}

// upperTable and lowerTable are the ASCII case-mapping translate tables.
var upperTable, lowerTable = func() (up, lo [256]byte) {
	for i := range up {
		up[i], lo[i] = byte(i), byte(i)
	}
	for c := byte('a'); c <= 'z'; c++ {
		up[c], lo[c-32] = c-32, c
	}
	return
}()

func smUpper(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	return m.CallAOT(vm.fnTranslate, vm.th.strUpper, args[0])
}

func (vm *VM) thunkStrUpper(vals []heap.Value) heap.Value {
	return heap.RefVal(vm.RT.Translate(vals[0].O, upperTable))
}

func smLower(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	return m.CallAOT(vm.fnTranslate, vm.th.strLower, args[0])
}

func (vm *VM) thunkStrLower(vals []heap.Value) heap.Value {
	return heap.RefVal(vm.RT.Translate(vals[0].O, lowerTable))
}

func smStrip(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	return m.CallAOT(vm.fnStrSlice, vm.th.strStrip, args[0])
}

func (vm *VM) thunkStrStrip(vals []heap.Value) heap.Value {
	b := vals[0].O.Bytes
	lo, hi := 0, len(b)
	for lo < hi && (b[lo] == ' ' || b[lo] == '\t' || b[lo] == '\n') {
		lo++
	}
	for hi > lo && (b[hi-1] == ' ' || b[hi-1] == '\t' || b[hi-1] == '\n') {
		hi--
	}
	vm.RT.S.Ops(isa.Load, len(b)/4+2)
	return heap.RefVal(vm.RT.NewStr(b[lo:hi]))
}

func smEncodeASCII(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	return m.CallAOT(vm.fnEncode, vm.th.encodeASCII, args[0])
}

func (vm *VM) thunkEncodeASCII(vals []heap.Value) heap.Value {
	return heap.RefVal(vm.RT.EncodeASCII(vals[0].O))
}

func dmGet(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	def := m.Const(heap.Nil)
	if len(args) > 2 {
		def = args[2]
	}
	return m.CallAOT(vm.fnDictLookup, vm.th.dictGet, args[0], args[1], def)
}

func (vm *VM) thunkDictGet(vals []heap.Value) heap.Value {
	v, ok := vm.RT.DictGet(vals[0].O.Native.(*aot.Dict), vals[1])
	if !ok {
		return vals[2]
	}
	return v
}

func dmKeys(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	return vm.iterPrep(m, args[0])
}

func dmValues(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	return m.CallAOT(vm.fnDictKeys, vm.th.dictValues, args[0])
}

func (vm *VM) thunkDictValues(vals []heap.Value) heap.Value {
	d := vals[0].O.Native.(*aot.Dict)
	out := vm.H.AllocElems(vm.ListShape, 0, d.Len())
	i := 0
	vm.RT.DictItems(d, func(_, v heap.Value) {
		out.Elems[i] = v
		i++
	})
	return heap.RefVal(out)
}

func dmPop(vm *VM, m *mtjit.Machine, args []mtjit.TV) mtjit.TV {
	return m.CallAOT(vm.fnDictDel, vm.th.dictPop, args[0], args[1])
}

func (vm *VM) thunkDictPop(vals []heap.Value) heap.Value {
	d := vals[0].O.Native.(*aot.Dict)
	v, ok := vm.RT.DictGet(d, vals[1])
	if !ok {
		vm.throw("KeyError in dict.pop()")
	}
	vm.RT.DictDel(d, vals[1])
	return v
}
