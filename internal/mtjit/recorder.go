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

// Recorder is the recording meta-interpreter: while a Machine records
// into it, every operation executes concretely as in plain
// interpretation and the Recorder appends the corresponding JIT IR,
// emitting the much higher per-operation cost of meta-interpretation
// into the tracing phase.
type Recorder struct {
	// d prices the recording's plain work: its own instance on the
	// engine's profile, so a recording never moves the interpreter's
	// table-load sequence.
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

func newRecorder(eng *Engine) *Recorder {
	return &Recorder{
		d:        newDirectMachine(eng.RT, eng.Profile),
		eng:      eng,
		constMap: make(map[constKey]Ref),
		nextReg:  1, // register 0 is the RefUnused sentinel
		recSite:  eng.RT.PC.Site(),
	}
}

// recCost emits the meta-interpretation overhead of recording one IR op:
// the meta-interpreter allocates boxes, appends to the operation list, and
// dispatches on the operation — an order of magnitude over plain
// interpretation.
func (m *Recorder) recCost() {
	s := m.d.S
	s.Ops(isa.ALU, 24)
	s.Ops(isa.Load, 9)
	s.Ops(isa.Store, 5)
	s.Branch(m.recSite.PC(), len(m.ops)&7 == 0)
	s.Indirect(m.recSite.PC()+4, uint64(len(m.ops)%23)*64+isa.RegionVMText)
}

// ref returns the IR ref of a TV, interning values that flowed in from
// outside the recording as trace constants.
func (m *Recorder) ref(a TV) Ref {
	if a.R != RefNone {
		return a.R
	}
	return m.intern(a.V)
}

func (m *Recorder) intern(v heap.Value) Ref {
	k := constKey{k: v.Kind}
	switch v.Kind {
	case heap.KindInt, heap.KindBool:
		k.i = v.I
	case heap.KindFloat:
		k.f = v.F()
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

func (m *Recorder) newReg() Ref {
	r := m.nextReg
	m.nextReg++
	return r
}

// rec appends an op, assigning a result register if withRes, and returns
// the result ref.
func (m *Recorder) rec(op Op, withRes bool) Ref {
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

func (m *Recorder) captureResume() *ResumeState {
	return &ResumeState{Frames: m.snapshot()}
}

// guard records a guard op carrying a fresh resume snapshot. The guard
// sits inside the bytecode currently being recorded (its Dispatch
// already bumped bcCount), and a failure resumes the interpreter at
// that bytecode's start, so the segment's exact retired work at this
// guard excludes the current bytecode.
func (m *Recorder) guard(op Op) {
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

// dispatch is Machine.Dispatch while recording: meta-interpreter
// dispatch is far heavier than plain dispatch (the meta-interpreter
// interprets the interpreter).
func (m *Recorder) dispatch(site uint64, target uint64) {
	s := m.d.S
	s.Annot(core.TagDispatch, 1)
	s.Ops(isa.ALU, 34)
	s.Ops(isa.Load, 12)
	s.Ops(isa.Store, 4)
	s.Indirect(site, target)
	s.Indirect(m.recSite.PC()+8, target+8)
	m.bcCount++
}

// guardKind records KindOf: the interpreter's type dispatch becomes a
// class guard in the trace.
func (m *Recorder) guardKind(a TV) {
	r := m.ref(a)
	if !r.IsConst() {
		k := a.V.Kind
		sh := KindShape(k)
		if k == heap.KindRef {
			sh = a.V.O.Shape
		}
		m.guard(Op{Opc: OpGuardClass, A: r, Shape: sh})
	}
}

// guardShape records ShapeOf.
func (m *Recorder) guardShape(a TV, sh *heap.Shape) {
	r := m.ref(a)
	if !r.IsConst() {
		m.guard(Op{Opc: OpGuardClass, A: r, Shape: sh})
	}
}

// guardNil records IsNil.
func (m *Recorder) guardNil(a TV, isNil bool) {
	r := m.ref(a)
	if !r.IsConst() {
		if isNil {
			m.guard(Op{Opc: OpGuardIsnull, A: r})
		} else {
			m.guard(Op{Opc: OpGuardNonnull, A: r})
		}
	}
}

// guardTruth records Truth: a guest branch becomes guard_true or
// guard_false.
func (m *Recorder) guardTruth(a TV, t bool) {
	r := m.ref(a)
	if !r.IsConst() {
		if t {
			m.guard(Op{Opc: OpGuardTrue, A: r})
		} else {
			m.guard(Op{Opc: OpGuardFalse, A: r})
		}
	}
}

// guardValue records a promotion: RPython's promote hint becomes
// guard_value, making the runtime value a trace constant.
func (m *Recorder) guardValue(a TV, v int64) {
	r := m.ref(a)
	if !r.IsConst() {
		m.guard(Op{Opc: OpGuardValue, A: r, Aux: v})
	}
}

func (m *Recorder) binop(opc Opcode, a, b TV) Ref {
	return m.rec(Op{Opc: opc, A: m.ref(a), B: m.ref(b)}, true)
}

func (m *Recorder) unop(opc Opcode, a TV) Ref {
	return m.rec(Op{Opc: opc, A: m.ref(a)}, true)
}

// intOvf records overflow-checked arithmetic and its guard_no_overflow.
func (m *Recorder) intOvf(opc Opcode, a, b TV, ovf bool) Ref {
	res := m.binop(opc, a, b)
	aux := int64(0)
	if ovf {
		aux = 1
	}
	m.guard(Op{Opc: OpGuardNoOverflow, Aux: aux})
	return res
}

// packNewArray packs the field count and array length of new_array into Aux.
func packNewArray(nFields, n int) int64 { return int64(nFields)<<32 | int64(uint32(n)) }

func unpackNewArray(aux int64) (nFields, n int) {
	return int(aux >> 32), int(int32(uint32(aux)))
}

func (m *Recorder) getField(o TV, i int) Ref {
	return m.rec(Op{Opc: OpGetfieldGC, A: m.ref(o), Aux: int64(i)}, true)
}

func (m *Recorder) setField(o TV, i int, v TV) {
	m.rec(Op{Opc: OpSetfieldGC, A: m.ref(o), B: m.ref(v), Aux: int64(i)}, false)
}

func (m *Recorder) setElem(o, i, v TV) {
	m.rec(Op{Opc: OpSetarrayitemGC, A: m.ref(o), B: m.ref(i), C: m.ref(v)}, false)
}

// strOp maps a byte-string opcode onto its unicode twin when the guest's
// strings are unicode.
func (m *Recorder) strOp(opc Opcode) Opcode {
	if !m.UseUnicodeOps {
		return opc
	}
	if opc == OpStrlen {
		return OpUnicodelen
	}
	return OpUnicodegetitem
}

// callAOT is Machine.CallAOT while recording: the call runs concretely
// and is recorded as a residual call node.
func (m *Recorder) callAOT(fn *aot.Func, thunk Thunk, args []TV) TV {
	refs := make([]Ref, len(args))
	for i, a := range args {
		refs[i] = m.ref(a)
	}
	v := m.d.callAOT(fn, thunk, args)
	opc := OpCall
	if fn.Src == aot.SrcInterp {
		opc = OpCallMayForce
	}
	r := m.rec(Op{Opc: opc, Fn: fn, Thunk: thunk, Args: refs}, true)
	return TV{V: v.V, R: r}
}

// DependOnGlobal records that the trace constant-folded the value bound
// to name: a guard_not_invalidated op is recorded (once per name per
// recording), and on install the trace registers as a dependent so a
// later store to name invalidates it (RPython's quasi-immutable field
// mechanism, applied to versioned module dicts).
func (m *Recorder) DependOnGlobal(name string) {
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
func (m *Recorder) DependsOnGlobal(name string) bool { return m.deps[name] }

// Abort abandons the recording with the given reason; the driver picks
// it up at the next merge point.
func (m *Recorder) Abort(reason AbortReason) {
	m.aborted = true
	m.reason = reason
}

// RefOf exposes the IR ref of a TV for snapshot construction, interning
// values that flowed in from outside the recording.
func (m *Recorder) RefOf(tv TV) Ref { return m.ref(tv) }
