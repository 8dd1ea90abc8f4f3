// Package mtjit implements the meta-tracing JIT: hot-loop detection, the
// tracing meta-interpreter, the trace optimizer (constant folding, guard
// elimination, heap-access CSE, escape analysis / allocation removal), the
// lowering of JIT IR to synthetic assembly, trace execution with guards,
// bridges for hot guard failures, and blackhole deoptimization. It is the
// analog of the RPython JIT characterized throughout the paper.
package mtjit

import (
	"fmt"

	"metajit/internal/aot"
	"metajit/internal/heap"
)

// Opcode enumerates the JIT IR node types (the vocabulary of Figures 7-9).
type Opcode uint8

// IR node types. Names follow RPython's JIT IR.
const (
	OpInvalid Opcode = iota

	// Memory operations.
	OpGetfieldGC
	OpSetfieldGC
	OpGetarrayitemGC
	OpSetarrayitemGC
	OpArraylenGC
	OpStrgetitem
	OpStrlen
	OpUnicodegetitem
	OpUnicodelen

	// Guards.
	OpGuardTrue
	OpGuardFalse
	OpGuardValue
	OpGuardClass
	OpGuardNonnull
	OpGuardIsnull
	OpGuardNoOverflow
	OpGuardNotInvalidated

	// Calls.
	OpCall
	OpCallMayForce
	OpCallAssembler
	OpCondCall

	// Control.
	OpLabel
	OpJump
	OpFinish
	// OpAnnot is a cross-layer annotation lowered into compiled code as
	// a tagged nop (Section IV: annotations survive into the generated
	// assembly). Aux packs tag<<32 | arg.
	OpAnnot

	// Integer operations.
	OpIntAdd
	OpIntSub
	OpIntMul
	OpIntFloorDiv
	OpIntMod
	OpIntAnd
	OpIntOr
	OpIntXor
	OpIntLshift
	OpIntRshift
	OpIntNeg
	OpIntLt
	OpIntLe
	OpIntEq
	OpIntNe
	OpIntGt
	OpIntGe
	OpIntIsTrue
	OpIntAddOvf
	OpIntSubOvf
	OpIntMulOvf

	// Allocation.
	OpNewWithVtable
	OpNewArray

	// Float operations.
	OpFloatAdd
	OpFloatSub
	OpFloatMul
	OpFloatTruediv
	OpFloatNeg
	OpFloatAbs
	OpFloatLt
	OpFloatLe
	OpFloatEq
	OpFloatNe
	OpFloatGt
	OpFloatGe
	OpCastIntToFloat
	OpCastFloatToInt

	// Pointer operations.
	OpPtrEq
	OpPtrNe
	OpSameAs

	NumOpcodes
)

// Category groups IR node types as in Figure 7.
type Category uint8

// Figure 7's categories.
const (
	CatMemop Category = iota
	CatGuard
	CatCall
	CatCtrl
	CatInt
	CatNew
	CatFloat
	CatStr
	CatPtr
	CatUnicode
	NumCategories
)

var categoryNames = [NumCategories]string{
	"memop", "guard", "call", "ctrl", "int", "new", "float", "str", "ptr", "unicode",
}

// String returns the category label used in Figure 7.
func (c Category) String() string { return categoryNames[c] }

// AllCategories lists categories in presentation order.
func AllCategories() []Category {
	out := make([]Category, NumCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

type opInfo struct {
	name string
	cat  Category
	// asm is the number of synthetic assembly instructions the node
	// lowers to (Figure 9); the executor emits a class mix matching the
	// node's nature.
	asm int
	// pure marks side-effect-free ops eligible for folding/CSE/DCE.
	pure bool
}

var opInfos = [NumOpcodes]opInfo{
	OpGetfieldGC:     {"getfield_gc", CatMemop, 1, false}, // CSE'd specially
	OpSetfieldGC:     {"setfield_gc", CatMemop, 2, false},
	OpGetarrayitemGC: {"getarrayitem_gc", CatMemop, 2, false},
	OpSetarrayitemGC: {"setarrayitem_gc", CatMemop, 3, false},
	OpArraylenGC:     {"arraylen_gc", CatMemop, 1, false},
	OpStrgetitem:     {"strgetitem", CatStr, 2, false},
	OpStrlen:         {"strlen", CatStr, 1, false},
	OpUnicodegetitem: {"unicodegetitem", CatUnicode, 2, false},
	OpUnicodelen:     {"unicodelen", CatUnicode, 1, false},

	OpGuardTrue:           {"guard_true", CatGuard, 2, false},
	OpGuardFalse:          {"guard_false", CatGuard, 2, false},
	OpGuardValue:          {"guard_value", CatGuard, 2, false},
	OpGuardClass:          {"guard_class", CatGuard, 3, false},
	OpGuardNonnull:        {"guard_nonnull", CatGuard, 2, false},
	OpGuardIsnull:         {"guard_isnull", CatGuard, 2, false},
	OpGuardNoOverflow:     {"guard_no_overflow", CatGuard, 1, false},
	OpGuardNotInvalidated: {"guard_not_invalidated", CatGuard, 0, false},

	OpCall:          {"call", CatCall, 16, false},
	OpCallMayForce:  {"call_may_force", CatCall, 19, false},
	OpCallAssembler: {"call_assembler", CatCall, 32, false},
	OpCondCall:      {"cond_call", CatCall, 14, false},

	OpLabel:  {"label", CatCtrl, 0, false},
	OpJump:   {"jump", CatCtrl, 4, false},
	OpFinish: {"finish", CatCtrl, 5, false},
	OpAnnot:  {"annotation_nop", CatCtrl, 1, false},

	OpIntAdd:      {"int_add", CatInt, 1, true},
	OpIntSub:      {"int_sub", CatInt, 1, true},
	OpIntMul:      {"int_mul", CatInt, 1, true},
	OpIntFloorDiv: {"int_floordiv", CatInt, 3, true},
	OpIntMod:      {"int_mod", CatInt, 3, true},
	OpIntAnd:      {"int_and", CatInt, 1, true},
	OpIntOr:       {"int_or", CatInt, 1, true},
	OpIntXor:      {"int_xor", CatInt, 1, true},
	OpIntLshift:   {"int_lshift", CatInt, 1, true},
	OpIntRshift:   {"int_rshift", CatInt, 1, true},
	OpIntNeg:      {"int_neg", CatInt, 1, true},
	OpIntLt:       {"int_lt", CatInt, 1, true},
	OpIntLe:       {"int_le", CatInt, 1, true},
	OpIntEq:       {"int_eq", CatInt, 1, true},
	OpIntNe:       {"int_ne", CatInt, 1, true},
	OpIntGt:       {"int_gt", CatInt, 1, true},
	OpIntGe:       {"int_ge", CatInt, 1, true},
	OpIntIsTrue:   {"int_is_true", CatInt, 1, true},
	OpIntAddOvf:   {"int_add_ovf", CatInt, 1, true},
	OpIntSubOvf:   {"int_sub_ovf", CatInt, 1, true},
	OpIntMulOvf:   {"int_mul_ovf", CatInt, 2, true},

	OpNewWithVtable: {"new_with_vtable", CatNew, 6, false},
	OpNewArray:      {"new_array", CatNew, 8, false},

	OpFloatAdd:       {"float_add", CatFloat, 1, true},
	OpFloatSub:       {"float_sub", CatFloat, 1, true},
	OpFloatMul:       {"float_mul", CatFloat, 1, true},
	OpFloatTruediv:   {"float_truediv", CatFloat, 1, true},
	OpFloatNeg:       {"float_neg", CatFloat, 1, true},
	OpFloatAbs:       {"float_abs", CatFloat, 1, true},
	OpFloatLt:        {"float_lt", CatFloat, 2, true},
	OpFloatLe:        {"float_le", CatFloat, 2, true},
	OpFloatEq:        {"float_eq", CatFloat, 2, true},
	OpFloatNe:        {"float_ne", CatFloat, 2, true},
	OpFloatGt:        {"float_gt", CatFloat, 2, true},
	OpFloatGe:        {"float_ge", CatFloat, 2, true},
	OpCastIntToFloat: {"cast_int_to_float", CatFloat, 1, true},
	OpCastFloatToInt: {"cast_float_to_int", CatFloat, 1, true},

	OpPtrEq:  {"ptr_eq", CatPtr, 1, true},
	OpPtrNe:  {"ptr_ne", CatPtr, 1, true},
	OpSameAs: {"same_as", CatPtr, 1, true},
}

// Name returns the RPython-style IR node name.
func (o Opcode) Name() string { return opInfos[o].name }

// Cat returns the node's Figure-7 category.
func (o Opcode) Cat() Category { return opInfos[o].cat }

// AsmLen returns how many synthetic assembly instructions the node lowers
// to (Figure 9's metric).
func (o Opcode) AsmLen() int { return opInfos[o].asm }

// Pure reports whether the op is side-effect-free.
func (o Opcode) Pure() bool { return opInfos[o].pure }

// IsGuard reports whether the op is a guard.
func (o Opcode) IsGuard() bool {
	return o >= OpGuardTrue && o <= OpGuardNotInvalidated
}

// IsCall reports whether the op is a call node.
func (o Opcode) IsCall() bool { return o >= OpCall && o <= OpCondCall }

// Ref names a trace value: non-negative refs are op results (by op index in
// the pre-optimization numbering), negative refs are constants
// (const index = -ref-1). RefNone marks absent operands.
type Ref int32

// RefNone is the absent-result sentinel.
const RefNone Ref = -1 << 30

// RefUnused is the zero Ref: register 0 is never allocated, so a
// zero-valued operand field means "no operand".
const RefUnused Ref = 0

// IsConst reports whether r names a constant.
func (r Ref) IsConst() bool { return r < 0 && r != RefNone }

// ConstIndex returns the constant-table index of a constant ref.
func (r Ref) ConstIndex() int { return int(-r - 1) }

// ConstRef builds the ref naming constant-table entry i.
func ConstRef(i int) Ref { return Ref(-i - 1) }

// Op is one JIT IR node.
type Op struct {
	Opc     Opcode
	A, B, C Ref
	// Res is the virtual register receiving the result (RefNone for
	// void ops).
	Res Ref
	// BCProgress is the number of guest bytecodes fully executed by the
	// segment before this guard's bytecode (guards only). On a guard
	// failure the interpreter resumes at the start of the guard's
	// bytecode and re-counts it, so this — not BCLength — is the work
	// the trace pass actually retired (exact work-meter accounting). It
	// and Fails are 32-bit and placed where they fill padding: the
	// recorder appends these structs by the thousand.
	BCProgress int32
	// Aux carries the field index (getfield/setfield), element count
	// (new_array), or expected kind tag (guard_class on unboxed kinds).
	Aux int64
	// Shape is the expected class for guard_class / allocated class for
	// new_with_vtable.
	Shape *heap.Shape
	// Fn and Thunk implement residual calls: Fn identifies the AOT
	// entry point, Thunk performs it.
	Fn    *aot.Func
	Thunk Thunk
	// Args holds call arguments.
	Args []Ref
	// Target is the callee trace of call_assembler.
	Target *Trace
	// Resume describes how to rebuild interpreter state if this guard
	// fails.
	Resume *ResumeState
	// GuardID is the engine-wide guard identity that annotations and
	// bridge requests name the guard by.
	GuardID uint32
	// Fails counts this guard's failures and Bridge is the bridge attached
	// to it, if any (guards only). They are the only fields the executor
	// writes after install.
	Fails  uint32
	Bridge *Trace
}

// String renders the op in PyPy-log style.
func (op *Op) String() string {
	s := op.Opc.Name()
	switch {
	case op.Opc.IsCall() && op.Fn != nil:
		s += fmt.Sprintf("(%s)", op.Fn.Name)
	case op.Opc == OpGuardClass && op.Shape != nil:
		s += fmt.Sprintf("(r%d, %s)", op.A, op.Shape.Name)
	case op.Opc == OpGetfieldGC || op.Opc == OpSetfieldGC:
		s += fmt.Sprintf("(r%d, #%d)", op.A, op.Aux)
	}
	return s
}

// VirtualDesc describes an allocation removed by the optimizer that must be
// rematerialized at deoptimization.
type VirtualDesc struct {
	Ref       Ref
	Shape     *heap.Shape
	NumFields int
	ArrayLen  int // -1 if no array part
	FieldRefs []Ref
	ElemRefs  []Ref
}

// FrameSnap snapshots one guest frame at a guard: the code identity, the
// guest pc, and the refs holding each frame slot (locals first, then the
// operand stack).
type FrameSnap struct {
	CodeID    uint32
	PC        int
	NumLocals int
	Slots     []Ref
	// Ctor marks a constructor frame: its return is discarded (the
	// instance already sits on the caller's operand stack).
	Ctor bool
}

// ResumeState snapshots the whole interpreter state at a guard. Because
// the meta-tracer inlines guest calls, a guard inside an inlined callee
// must rebuild the entire frame chain from the trace-root frame (first
// entry) to the innermost frame (last entry). Virtuals lists
// allocation-removed objects referenced by the slots, to be rematerialized
// by the blackhole interpreter.
type ResumeState struct {
	Frames   []FrameSnap
	Virtuals []VirtualDesc
}

// GreenKey identifies an application-level loop: the interpreter's "green"
// variables (code object identity + position).
type GreenKey struct {
	CodeID uint32
	PC     int
}

// Trace is one unit of JIT-compiled code: a loop trace or a bridge.
type Trace struct {
	ID     uint32
	Key    GreenKey
	Bridge bool
	// Invalidated is set when a runtime assumption the trace was
	// compiled under (a constant-folded global) is broken: every
	// guard_not_invalidated in the trace fails from then on, and the
	// trace is unlinked from the lookup tables.
	Invalidated bool
	// Entry maps interpreter state to input registers: at entry,
	// regs[Entry.Frames[k].Slots[i]] is loaded from slot i of frame k.
	// Loop traces enter with a single frame (the merge-point frame);
	// bridges enter with the frame chain of the failing guard.
	Entry *ResumeState
	Ops   []Op
	// Consts is the constant table referenced by negative refs.
	Consts []heap.Value
	// NumRegs is the register-file size needed to run the trace.
	NumRegs int
	// BCLength is the number of guest bytecodes one iteration covers
	// (work-meter accounting for the dispatch annotation).
	BCLength int
	// AsmBase/AsmLen locate the lowered code in the simulated JIT
	// region; the ops lie back to back from AsmBase, four bytes an
	// instruction, so guard branch PCs are stable.
	AsmBase uint64
	AsmLen  int
	// ExecCount counts passes over the trace: entries from the
	// interpreter, loop-closing jumps into it and bridge transfers
	// (Figure 6's usage data).
	ExecCount uint64

	// code is Ops lowered for the executor and regBase the register-file
	// index of register 0 (see predecode.go); files pools the trace's
	// register files.
	code    []inst
	regBase int
	files   [][]heap.Value
	label   string // Label's result, built on first use
}

// Kind names the trace's kind: "loop" or "bridge".
func (t *Trace) Kind() string {
	if t.Bridge {
		return "bridge"
	}
	return "loop"
}

// Label returns a compact human-readable name for the trace, unique
// within the run: "loop3@c2:p14" for loop trace 3 at pc 14 of function
// 2, "bridge7@c2:p9" for bridge 7 of the loop at pc 9. Like
// TierCode.Label, it is safe for folded-flamegraph frames: no spaces or
// semicolons.
func (t *Trace) Label() string {
	if t.label == "" {
		t.label = fmt.Sprintf("%s%d@c%d:p%d", t.Kind(), t.ID, t.Key.CodeID, t.Key.PC)
	}
	return t.label
}

// OpExecs returns how often each op has executed, for IR-profile
// reporting. Nothing counts per op: a pass starts at op 0 and leaves only
// at a failing guard or at the closing jump/finish/call_assembler, so op i
// has run ExecCount times less the failures of the guards before it. (A
// pass cut short by a guest error unwinding through a residual call is
// counted as complete; such a run reports the error, not a profile.)
func (t *Trace) OpExecs() []uint64 {
	execs := make([]uint64, len(t.Ops))
	n := t.ExecCount
	for i := range t.Ops {
		execs[i] = n
		if t.Ops[i].Opc.IsGuard() {
			n -= uint64(t.Ops[i].Fails)
		}
	}
	return execs
}

// NewOpsCount returns the number of IR nodes excluding labels (the unit of
// Figure 6a).
func (t *Trace) NewOpsCount() int {
	n := 0
	for i := range t.Ops {
		if t.Ops[i].Opc != OpLabel {
			n++
		}
	}
	return n
}
