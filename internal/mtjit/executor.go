package mtjit

import (
	"fmt"

	"metajit/internal/core"
	"metajit/internal/heap"
	"metajit/internal/isa"
)

// FrameVals is one reconstructed guest frame after deoptimization: the
// concrete values of every slot at the failed guard.
type FrameVals struct {
	CodeID    uint32
	PC        int
	NumLocals int
	Vals      []heap.Value
	// Ctor marks a constructor frame (see FrameSnap.Ctor).
	Ctor bool
}

// ExitState describes how trace execution ended and what the interpreter
// must do next. The state, its Frames and every frame's Vals are buffers
// the Engine owns and rewrites on its next Execute: the driver copies the
// values into its own frames before anything else runs.
type ExitState struct {
	// Frames is the reconstructed frame chain (trace-root first).
	Frames []FrameVals
	// Enter, when non-nil, is a call_assembler target: the driver should
	// rebuild the frames and immediately execute this trace on the
	// innermost frame.
	Enter *Trace
	// StartBridgeGuard, when non-zero, asks the driver to begin
	// recording a bridge from the reconstructed state for this guard.
	StartBridgeGuard uint32
	// GuardID is the guard that failed (0 for finish exits).
	GuardID uint32
}

// Fixed executor instruction mixes (loop closing, trace epilogues,
// blackhole decode), retired as single blocks — these sit on every
// compiled-loop iteration or every deopt slot.
var (
	jumpBlock    = isa.NewBlock(isa.CC(isa.ALU, 2), isa.CC(isa.Jump, 2))
	finishBlock  = isa.NewBlock(isa.CC(isa.ALU, 3), isa.CC(isa.Store, 2))
	callAsmBlock = isa.NewBlock(isa.CC(isa.ALU, 12), isa.CC(isa.Store, 8), isa.CC(isa.Load, 8))
	bhSlotBlock  = isa.NewBlock(isa.CC(isa.Load, 3), isa.CC(isa.ALU, 5))
	bhExitBlock  = isa.NewBlock(isa.CC(isa.ALU, 40), isa.CC(isa.Load, 18), isa.CC(isa.Store, 10))
	mulOvfBlock  = isa.NewBlock(isa.CC(isa.Mul, 1), isa.CC(isa.ALU, 1))
	divModBlock  = isa.NewBlock(isa.CC(isa.Div, 1), isa.CC(isa.ALU, 2))
)

// Execute runs a compiled loop trace against the interpreter frame until a
// guard without an attached bridge fails (deoptimization) or the trace
// finishes. Hot guard failures transfer into bridges without leaving
// JIT-compiled code.
func (e *Engine) Execute(t *Trace, fr FrameAdapter) *ExitState {
	if len(t.Entry.Frames) != 1 {
		panic("mtjit: loop trace entry must have exactly one frame")
	}
	if PoisonScratch {
		e.poisonExit()
	}
	regs := e.getRegs(t.NumRegs)
	depth := len(e.activeRegs)
	e.activeRegs = append(e.activeRegs, regs)
	defer e.leaveExecute()

	// Scratch buffers of this nesting depth, reused across iterations and
	// across Execute calls: loop-closing jumps and residual calls marshal
	// their operands here. Consumers copy the values out (or only read
	// them) before the next use, and every value also lives in regs,
	// which is what the simulated GC scans.
	if depth == len(e.scratch) {
		e.scratch = append(e.scratch, &execScratch{})
	}
	sc := e.scratch[depth]

	entry := t.Entry.Frames[0]
	if len(entry.Slots) != fr.NumSlots() {
		panic(fmt.Sprintf("mtjit: trace %d entry expects %d slots, frame has %d",
			t.ID, len(entry.Slots), fr.NumSlots()))
	}
	for i, ref := range entry.Slots {
		regs[ref] = fr.ReadSlot(i)
	}

	s := e.S
	s.Annot(core.TagJITEnter, uint64(t.ID))
	t.ExecCount++
	// Work accounting is exact: a segment's bytecodes are counted when
	// the segment completes (the loop-closing jump, finish, or
	// call_assembler), and a guard failure counts only the bytecodes the
	// pass actually retired (Op.BCProgress). Totals therefore agree with
	// a pure-interpreter run bit for bit, whatever the tier mix.

	cur := t
	ops := t.Ops
	for pc := 0; pc < len(ops); pc++ {
		op := &ops[pc]
		cur.OpExecs[pc]++
		opPC := cur.AsmBase + cur.OpPCs[pc]

		switch op.Opc {
		case OpLabel:
			continue

		case OpAnnot:
			s.Annot(core.Tag(op.Aux>>32), uint64(uint32(op.Aux)))

		case OpJump:
			// Close the loop: remap jump args onto entry slots. The
			// completed segment (one loop iteration, or a whole bridge)
			// retires its recorded bytecodes here.
			s.Annot(core.TagDispatch, uint64(cur.BCLength))
			s.Block(jumpBlock)
			if cap(sc.jumpTmp) < len(op.Args) {
				sc.jumpTmp = make([]heap.Value, len(op.Args))
			}
			tmp := sc.jumpTmp[:len(op.Args)]
			for i, a := range op.Args {
				tmp[i] = e.val(cur, regs, a)
			}
			// A jump targets the owning loop's entry label (Target is
			// nil for self-jumps, a loop trace for bridge exits).
			target := op.Target
			if target == nil {
				target = cur
			}
			if cur != target {
				// Bridge jumping back into a loop: switch register
				// files.
				regs2 := e.getRegs(target.NumRegs)
				for i, ref := range target.Entry.Frames[0].Slots {
					regs2[ref] = tmp[i]
				}
				e.putRegs(regs)
				regs = regs2
				e.activeRegs[depth] = regs
				cur = target
				ops = cur.Ops
			} else {
				for i, ref := range cur.Entry.Frames[0].Slots {
					regs[ref] = tmp[i]
				}
			}
			cur.ExecCount++
			pc = -1 // restart at ops[0]
			continue

		case OpFinish:
			// The recorded path ran to its end: the whole segment
			// retired (finish resumes past the last recorded bytecode).
			s.Annot(core.TagDispatch, uint64(cur.BCLength))
			s.Block(finishBlock)
			exit := e.materializeFrames(cur, op.Resume, regs, false)
			s.Annot(core.TagJITLeave, uint64(cur.ID))
			return exit

		case OpCallAssembler:
			// Recording ended at another loop's header, before its
			// bytecode dispatched: the whole segment retired.
			s.Annot(core.TagDispatch, uint64(cur.BCLength))
			s.Block(callAsmBlock)
			s.CallIndirect(opPC, op.Target.AsmBase)
			exit := e.materializeFrames(cur, op.Resume, regs, false)
			s.Annot(core.TagJITLeave, uint64(cur.ID))
			exit.Enter = op.Target
			return exit

		case OpGuardTrue, OpGuardFalse, OpGuardValue, OpGuardClass,
			OpGuardNonnull, OpGuardIsnull, OpGuardNoOverflow, OpGuardNotInvalidated:
			ok := e.checkGuard(cur, op, regs)
			if ok && e.ForceGuardFail != nil && e.ForceGuardFail(cur, op) {
				ok = false
			}
			// guard_not_invalidated lowers to zero instructions (the
			// invalidation path patches the code instead), so only the
			// branch below is accounted for it.
			if n := op.Opc.AsmLen() - 1; n > 0 {
				s.Ops(isa.ALU, n)
			}
			s.Branch(opPC, !ok)
			if ok {
				continue
			}
			exit, newTrace, newRegs := e.guardFail(cur, op, regs)
			if exit != nil {
				return exit
			}
			// Transfer into the bridge.
			cur = newTrace
			ops = cur.Ops
			e.putRegs(regs)
			regs = newRegs
			e.activeRegs[depth] = regs
			pc = -1
			continue

		case OpCall, OpCallMayForce, OpCondCall:
			if cap(sc.callArgs) < len(op.Args) {
				sc.callArgs = make([]heap.Value, len(op.Args))
			}
			args := sc.callArgs[:len(op.Args)]
			for i, a := range op.Args {
				args[i] = e.val(cur, regs, a)
			}
			s.Annot(core.TagAOTCallEnter, uint64(op.Fn.ID))
			e.RT.CallPrologue(op.Fn, len(args))
			res := op.Thunk(args)
			if PoisonScratch {
				poison(args)
			}
			e.RT.CallEpilogue(op.Fn)
			s.Annot(core.TagAOTCallLeave, uint64(op.Fn.ID))
			if op.Res != RefNone {
				regs[op.Res] = res
			}

		default:
			e.execSimple(cur, op, opPC, regs)
		}
	}
	panic(fmt.Sprintf("mtjit: trace %d fell off the end (missing jump/finish)", cur.ID))
}

// val resolves a ref against the register file and constant table.
func (e *Engine) val(t *Trace, regs []heap.Value, r Ref) heap.Value {
	if r.IsConst() {
		return t.Consts[r.ConstIndex()]
	}
	if r == RefUnused || r == RefNone {
		return heap.Nil
	}
	return regs[r]
}

// checkGuard evaluates a guard condition.
func (e *Engine) checkGuard(t *Trace, op *Op, regs []heap.Value) bool {
	switch op.Opc {
	case OpGuardTrue:
		return e.val(t, regs, op.A).Truthy()
	case OpGuardFalse:
		return !e.val(t, regs, op.A).Truthy()
	case OpGuardValue:
		v := e.val(t, regs, op.A)
		if v.Kind == heap.KindRef {
			return v.O != nil && int64(v.O.UID()) == op.Aux
		}
		return v.I == op.Aux
	case OpGuardClass:
		v := e.val(t, regs, op.A)
		if v.Kind != heap.KindRef {
			return KindShape(v.Kind) == op.Shape
		}
		return v.O != nil && v.O.Shape == op.Shape
	case OpGuardNonnull:
		return e.val(t, regs, op.A).Kind != heap.KindNil
	case OpGuardIsnull:
		return e.val(t, regs, op.A).Kind == heap.KindNil
	case OpGuardNoOverflow:
		// The paired ovf op stored its overflow flag in the engine.
		return e.lastOvf == (op.Aux == 1)
	case OpGuardNotInvalidated:
		return !t.Invalidated
	}
	panic("mtjit: not a guard: " + op.Opc.Name())
}

// guardFail handles a failing guard: transfer to an attached bridge, or
// deoptimize through the blackhole interpreter.
func (e *Engine) guardFail(t *Trace, op *Op, regs []heap.Value) (*ExitState, *Trace, []heap.Value) {
	e.guardFails[op.GuardID]++
	e.keyGuardFails[t.Key]++
	e.stats.GuardFailures++
	if m := telem(); m != nil {
		m.guardFails.Inc()
	}
	s := e.S
	s.Annot(core.TagGuardFail, uint64(op.GuardID))
	// The failing pass retired only the bytecodes before the guard's
	// bytecode; the interpreter (or the bridge, which was recorded from
	// the re-executed bytecode) counts the rest itself.
	if op.BCProgress > 0 {
		s.Annot(core.TagDispatch, uint64(op.BCProgress))
	}

	if bridge := e.bridges[op.GuardID]; bridge != nil {
		s.Annot(core.TagBridgeEnter, uint64(bridge.ID))
		// Compute the slot values of the resume state and feed them to
		// the bridge's entry mapping; virtuals are materialized. The
		// caller releases the old register file after the transfer.
		newRegs := e.getRegs(bridge.NumRegs)
		e.materializeVirtuals(t, op.Resume, regs)
		if len(bridge.Entry.Frames) != len(op.Resume.Frames) {
			panic("mtjit: bridge entry does not match guard resume shape")
		}
		for fi := range op.Resume.Frames {
			src := &op.Resume.Frames[fi]
			dst := &bridge.Entry.Frames[fi]
			for si, ref := range src.Slots {
				newRegs[dst.Slots[si]] = e.resumeVal(t, regs, ref)
			}
		}
		bridge.ExecCount++
		return nil, bridge, newRegs
	}

	// Deoptimize.
	s.Annot(core.TagJITLeave, uint64(t.ID))
	s.Annot(core.TagBlackholeEnter, uint64(op.GuardID))
	exit := e.materializeFrames(t, op.Resume, regs, true)
	s.Annot(core.TagBlackholeLeave, uint64(op.GuardID))

	exit.GuardID = op.GuardID
	if e.guardFails[op.GuardID] == e.BridgeThreshold {
		exit.StartBridgeGuard = op.GuardID
		e.pendingBridgeResume[op.GuardID] = op.Resume
	}
	return exit, nil, nil
}

// materializeVirtuals rebuilds allocation-removed objects described by a
// resume state into e.virt, in two passes so virtuals may reference each
// other. e.virt is reused by the next guard failure.
func (e *Engine) materializeVirtuals(t *Trace, r *ResumeState, regs []heap.Value) {
	e.virt = e.virt[:0]
	for _, vd := range r.Virtuals {
		var o *heap.Obj
		if vd.ArrayLen >= 0 {
			o = e.H.AllocElems(vd.Shape, vd.NumFields, vd.ArrayLen)
		} else {
			o = e.H.AllocObj(vd.Shape, vd.NumFields)
		}
		e.virt = append(e.virt, virtObj{vd.Ref, o})
	}
	for vi, vd := range r.Virtuals {
		o := e.virt[vi].obj
		for i, f := range vd.FieldRefs {
			e.H.WriteField(o, i, e.resumeVal(t, regs, f))
		}
		for i, el := range vd.ElemRefs {
			e.H.WriteElem(o, i, e.resumeVal(t, regs, el))
		}
	}
}

// resumeVal resolves a resume ref, consulting the virtuals materialized
// for the failing guard (none for 97% of failures and never more than
// three across the benchmark's JIT cells, so a scan beats a map).
func (e *Engine) resumeVal(t *Trace, regs []heap.Value, r Ref) heap.Value {
	for i := range e.virt {
		if e.virt[i].ref == r {
			return heap.RefVal(e.virt[i].obj)
		}
	}
	return e.val(t, regs, r)
}

// materializeFrames runs the blackhole interpreter: it decodes the resume
// data and rebuilds every interpreter frame into the engine's exit
// buffers. The blackhole interpreter's instruction mix is dominated by
// dependent loads and indirect dispatch, which is why the paper measures
// it with the worst IPC of all phases (Table IV).
func (e *Engine) materializeFrames(t *Trace, r *ResumeState, regs []heap.Value, blackhole bool) *ExitState {
	e.materializeVirtuals(t, r, regs)
	for len(e.exitFrames) < len(r.Frames) {
		e.exitFrames = append(e.exitFrames, FrameVals{})
	}
	out := e.exitFrames[:len(r.Frames)]
	s := e.S
	for fi := range r.Frames {
		f := &r.Frames[fi]
		fv := &out[fi]
		fv.CodeID, fv.PC, fv.NumLocals, fv.Ctor = f.CodeID, f.PC, f.NumLocals, f.Ctor
		fv.Vals = fv.Vals[:0]
		for si, ref := range f.Slots {
			fv.Vals = append(fv.Vals, e.resumeVal(t, regs, ref))
			if blackhole {
				// Resume-data decode: chase the compressed encoding,
				// dispatch on the tag, store the slot.
				s.Block(bhSlotBlock)
				s.Indirect(e.bhSite.PC(), uint64(ref&15)*32+isa.RegionVMText+0x60_0000)
				s.Store(isa.RegionStack + uint64(fi)*512 + uint64(si)*8)
			}
		}
	}
	if blackhole {
		s.Block(bhExitBlock)
	}
	e.exit = ExitState{Frames: out}
	return &e.exit
}

// execSimple executes the arithmetic/memory IR nodes.
func (e *Engine) execSimple(t *Trace, op *Op, opPC uint64, regs []heap.Value) {
	s := e.S
	switch op.Opc {
	case OpIntAddOvf:
		a, b := e.val(t, regs, op.A), e.val(t, regs, op.B)
		r, ovf := addOvf(a.I, b.I)
		e.lastOvf = ovf
		regs[op.Res] = heap.IntVal(r)
		s.Ops(isa.ALU, 1)
	case OpIntSubOvf:
		a, b := e.val(t, regs, op.A), e.val(t, regs, op.B)
		r, ovf := subOvf(a.I, b.I)
		e.lastOvf = ovf
		regs[op.Res] = heap.IntVal(r)
		s.Ops(isa.ALU, 1)
	case OpIntMulOvf:
		a, b := e.val(t, regs, op.A), e.val(t, regs, op.B)
		r, ovf := mulOvf(a.I, b.I)
		e.lastOvf = ovf
		regs[op.Res] = heap.IntVal(r)
		s.Block(mulOvfBlock)

	case OpGetfieldGC:
		o := e.val(t, regs, op.A).O
		regs[op.Res] = e.H.ReadField(o, int(op.Aux))
	case OpSetfieldGC:
		o := e.val(t, regs, op.A).O
		s.Ops(isa.ALU, 1)
		e.H.WriteField(o, int(op.Aux), e.val(t, regs, op.B))
	case OpGetarrayitemGC:
		o := e.val(t, regs, op.A).O
		s.Ops(isa.ALU, 1)
		regs[op.Res] = e.H.ReadElem(o, int(e.val(t, regs, op.B).I))
	case OpSetarrayitemGC:
		o := e.val(t, regs, op.A).O
		s.Ops(isa.ALU, 2)
		e.H.WriteElem(o, int(e.val(t, regs, op.B).I), e.val(t, regs, op.C))
	case OpArraylenGC:
		o := e.val(t, regs, op.A).O
		s.Load(o.Addr() + 8)
		regs[op.Res] = heap.IntVal(int64(len(o.Elems)))
	case OpStrgetitem, OpUnicodegetitem:
		o := e.val(t, regs, op.A).O
		s.Ops(isa.ALU, 1)
		regs[op.Res] = heap.IntVal(int64(e.H.LoadByte(o, int(e.val(t, regs, op.B).I))))
	case OpStrlen, OpUnicodelen:
		o := e.val(t, regs, op.A).O
		s.Load(o.Addr() + 8)
		regs[op.Res] = heap.IntVal(int64(len(o.Bytes)))

	case OpNewWithVtable:
		s.Ops(isa.ALU, op.Opc.AsmLen()-2)
		regs[op.Res] = heap.RefVal(e.H.AllocObj(op.Shape, int(op.Aux)))
	case OpNewArray:
		nf, n := unpackNewArray(op.Aux)
		s.Ops(isa.ALU, op.Opc.AsmLen()-2)
		regs[op.Res] = heap.RefVal(e.H.AllocElems(op.Shape, nf, n))

	default:
		// Pure arithmetic.
		a := e.val(t, regs, op.A)
		var res heap.Value
		var ok bool
		if isBinary(op.Opc) {
			res, ok = evalPureBin(op.Opc, a, e.val(t, regs, op.B))
		} else {
			res, ok = evalPureUn(op.Opc, a)
		}
		if !ok {
			panic("mtjit: cannot execute IR op " + op.Opc.Name())
		}
		regs[op.Res] = res
		switch op.Opc.Cat() {
		case CatFloat:
			switch op.Opc {
			case OpFloatMul:
				s.Ops(isa.FMul, 1)
			case OpFloatTruediv:
				s.Ops(isa.FDiv, 1)
			default:
				s.Ops(isa.FPU, op.Opc.AsmLen())
			}
		default:
			if op.Opc == OpIntMul {
				s.Ops(isa.Mul, 1)
			} else if op.Opc == OpIntFloorDiv || op.Opc == OpIntMod {
				s.Block(divModBlock)
			} else {
				s.Ops(isa.ALU, op.Opc.AsmLen())
			}
		}
	}
}
