package mtjit

import (
	"metajit/internal/aot"
	"metajit/internal/core"
	"metajit/internal/heap"
	"metajit/internal/isa"
)

// TV is a traced value: the concrete guest value plus, while the
// meta-interpreter is recording, the IR ref that produced it. Guest
// interpreter frames hold TVs so the same evaluator code runs in plain
// interpretation, under the tracing meta-interpreter, and (indirectly)
// as compiled code.
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

// Machine is the execution interface guest interpreters are written
// against: the meta-tracing analog of writing an interpreter in RPython.
// DirectMachine executes concretely; TracingMachine additionally records
// JIT IR. Type tests and truth tests become guards in recorded traces.
type Machine interface {
	// Heap and runtime access.
	Heap() *heap.Heap
	Runtime() *aot.Runtime
	// Tracing reports whether a recording is active (guests use it only
	// to decide merge-point behavior, never to change semantics).
	Tracing() bool

	// Dispatch accounts one iteration of the guest dispatch loop and
	// emits the cross-layer dispatch annotation (the work meter).
	Dispatch(site uint64, target uint64)

	// Const injects a constant.
	Const(v heap.Value) TV

	// Type tests (guards when tracing).
	KindOf(a TV) heap.Kind
	ShapeOf(a TV) *heap.Shape
	IsNil(a TV) bool
	Truth(a TV, site uint64) bool
	// PromoteInt makes the concrete integer value of a available as a
	// trace constant (RPython's promote hint): guard_value.
	PromoteInt(a TV) int64
	// PromoteRef promotes an object identity (e.g. a code object).
	PromoteRef(a TV) *heap.Obj

	// Integer ops (operands must be ints).
	IntAdd(a, b TV) TV
	IntSub(a, b TV) TV
	IntMul(a, b TV) TV
	IntAddOvf(a, b TV) (TV, bool)
	IntSubOvf(a, b TV) (TV, bool)
	IntMulOvf(a, b TV) (TV, bool)
	IntFloorDiv(a, b TV) TV
	IntMod(a, b TV) TV
	IntAnd(a, b TV) TV
	IntOr(a, b TV) TV
	IntXor(a, b TV) TV
	IntLshift(a, b TV) TV
	IntRshift(a, b TV) TV
	IntNeg(a TV) TV
	IntCmp(opc Opcode, a, b TV) TV

	// Float ops.
	FloatArith(opc Opcode, a, b TV) TV
	FloatCmp(opc Opcode, a, b TV) TV
	FloatNeg(a TV) TV
	IntToFloat(a TV) TV
	FloatToInt(a TV) TV

	// Heap ops.
	NewObj(shape *heap.Shape, nFields int) TV
	NewArray(shape *heap.Shape, nFields, n int) TV
	GetField(o TV, i int) TV
	SetField(o TV, i int, v TV)
	GetElem(o TV, i TV) TV
	SetElem(o TV, i TV, v TV)
	ArrayLen(o TV) TV
	StrGetItem(o TV, i TV) TV
	StrLen(o TV) TV
	PtrEq(a, b TV) TV

	// Annotate emits a cross-layer annotation: a tagged nop in the
	// instruction stream that recording lowers into compiled code.
	Annotate(tag core.Tag, arg uint64)

	// CallAOT performs a residual call to an AOT-compiled function.
	// thunk must capture everything needed to re-execute the call from
	// compiled code. CallAOT1/2/3 are the same call with the arguments
	// passed by value — a variadic slice handed through an interface
	// escapes to the host heap on every call.
	CallAOT(fn *aot.Func, thunk Thunk, args ...TV) TV
	CallAOT1(fn *aot.Func, thunk Thunk, a TV) TV
	CallAOT2(fn *aot.Func, thunk Thunk, a, b TV) TV
	CallAOT3(fn *aot.Func, thunk Thunk, a, b, c TV) TV

	// Guest-call overhead accounting (frame push/pop).
	GuestCall(site uint64)
	GuestReturn()
}
