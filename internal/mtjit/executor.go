package mtjit

import (
	"fmt"
	"math"

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
//
// The loop runs the predecoded form (predecode.go), one dispatch per IR
// op: each case does the op's work and retires its instructions into the
// machine. Retire calls are never merged across ops — Counters.Cycles is a
// float64 accumulated in retire order with non-dyadic issue costs, so any
// regrouping changes its rounding and every result derived from it.
func (e *Engine) Execute(t *Trace, fr FrameAdapter) *ExitState {
	if len(t.Entry.Frames) != 1 {
		panic("mtjit: loop trace entry must have exactly one frame")
	}
	if PoisonScratch {
		e.poisonExit()
	}
	regs := t.getRegs()
	depth := len(e.active)
	e.active = append(e.active, activeFile{t, regs})
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

	entry := &t.Entry.Frames[0]
	if len(entry.Slots) != fr.NumSlots() {
		panic(fmt.Sprintf("mtjit: trace %d entry expects %d slots, frame has %d",
			t.ID, len(entry.Slots), fr.NumSlots()))
	}
	base := t.regBase
	for i, ref := range entry.Slots {
		regs[base+int(ref)] = fr.ReadSlot(i)
	}

	m, h := e.S, e.H
	m.Annot(core.TagJITEnter, uint64(t.ID))
	t.ExecCount++
	// Work accounting is exact: a segment's bytecodes are counted when
	// the segment completes (the loop-closing jump, finish, or
	// call_assembler), and a guard failure counts only the bytecodes the
	// pass actually retired (Op.BCProgress). Totals therefore agree with
	// a pure-interpreter run bit for bit, whatever the tier mix.

	cur, code := t, t.code
	for pc := 0; pc < len(code); pc++ {
		x := &code[pc]
		var ok bool // a guard's outcome, for the shared tail below the switch
		switch x.opc {
		case OpLabel:

		case OpAnnot:
			m.Annot(core.Tag(x.aux>>32), uint64(uint32(x.aux)))

		case OpJump:
			// Close the loop: remap jump args onto entry slots. The
			// completed segment (one loop iteration, or a whole bridge)
			// retires its recorded bytecodes here.
			m.Annot(core.TagDispatch, uint64(cur.BCLength))
			m.Block(jumpBlock)
			args := x.op.Args
			// A jump targets the owning loop's entry label (Target is
			// nil for self-jumps, a loop trace for bridge exits).
			if target := x.op.Target; target != nil && target != cur {
				// Bridge jumping back into a loop: switch register
				// files.
				next, nb := target.getRegs(), target.regBase
				for i, ref := range target.Entry.Frames[0].Slots {
					next[nb+int(ref)] = regs[base+int(args[i])]
				}
				cur.putRegs(regs)
				cur, code, regs, base = target, target.code, next, nb
				e.active[depth] = activeFile{cur, regs}
			} else {
				// The entry slots may be jump args themselves: move in
				// parallel, through the scratch.
				if cap(sc.jumpTmp) < len(args) {
					sc.jumpTmp = make([]heap.Value, len(args))
				}
				tmp := sc.jumpTmp[:len(args)]
				for i, a := range args {
					tmp[i] = regs[base+int(a)]
				}
				for i, ref := range cur.Entry.Frames[0].Slots {
					regs[base+int(ref)] = tmp[i]
				}
			}
			cur.ExecCount++
			pc = -1 // restart at code[0]

		case OpFinish:
			// The recorded path ran to its end: the whole segment
			// retired (finish resumes past the last recorded bytecode).
			m.Annot(core.TagDispatch, uint64(cur.BCLength))
			m.Block(finishBlock)
			exit := e.materializeFrames(cur, x.op.Resume, regs, false)
			m.Annot(core.TagJITLeave, uint64(cur.ID))
			return exit

		case OpCallAssembler:
			// Recording ended at another loop's header, before its
			// bytecode dispatched: the whole segment retired.
			m.Annot(core.TagDispatch, uint64(cur.BCLength))
			m.Block(callAsmBlock)
			m.CallIndirect(x.pc, x.op.Target.AsmBase)
			exit := e.materializeFrames(cur, x.op.Resume, regs, false)
			m.Annot(core.TagJITLeave, uint64(cur.ID))
			exit.Enter = x.op.Target
			return exit

		case OpCall, OpCallMayForce, OpCondCall:
			op := x.op
			if cap(sc.callArgs) < len(op.Args) {
				sc.callArgs = make([]heap.Value, len(op.Args))
			}
			args := sc.callArgs[:len(op.Args)]
			for i, a := range op.Args {
				args[i] = regs[base+int(a)]
			}
			m.Annot(core.TagAOTCallEnter, uint64(op.Fn.ID))
			e.RT.CallPrologue(op.Fn, len(args))
			res := op.Thunk(args)
			if PoisonScratch {
				poison(args)
			}
			e.RT.CallEpilogue(op.Fn)
			m.Annot(core.TagAOTCallLeave, uint64(op.Fn.ID))
			if x.res >= 0 {
				regs[x.res] = res
			}

		// Guards evaluate their condition here and share the tail below
		// the switch.
		case OpGuardTrue:
			ok = regs[x.a].Truthy()
			goto guard
		case OpGuardFalse:
			ok = !regs[x.a].Truthy()
			goto guard
		case OpGuardValue:
			if v := &regs[x.a]; v.Kind == heap.KindRef {
				ok = v.O != nil && int64(v.O.UID()) == x.aux
			} else {
				ok = v.I == x.aux
			}
			goto guard
		case OpGuardClass:
			if v := &regs[x.a]; v.Kind == heap.KindRef {
				ok = v.O != nil && v.O.Shape == x.shape
			} else {
				ok = KindShape(v.Kind) == x.shape
			}
			goto guard
		case OpGuardNonnull:
			ok = regs[x.a].Kind != heap.KindNil
			goto guard
		case OpGuardIsnull:
			ok = regs[x.a].Kind == heap.KindNil
			goto guard
		case OpGuardNoOverflow:
			// The paired ovf op stored its overflow flag in the engine.
			ok = e.lastOvf == (x.aux == 1)
			goto guard
		case OpGuardNotInvalidated:
			ok = !cur.Invalidated
			goto guard

		case OpGetfieldGC:
			regs[x.res] = h.ReadField(regs[x.a].O, int(x.aux))
		case OpSetfieldGC:
			m.Ops(isa.ALU, 1)
			h.WriteField(regs[x.a].O, int(x.aux), regs[x.b])
		case OpGetarrayitemGC:
			m.Ops(isa.ALU, 1)
			regs[x.res] = h.ReadElem(regs[x.a].O, int(regs[x.b].I))
		case OpSetarrayitemGC:
			m.Ops(isa.ALU, 2)
			h.WriteElem(regs[x.a].O, int(regs[x.b].I), regs[x.c])
		case OpArraylenGC:
			o := regs[x.a].O
			m.Load(o.Addr() + 8)
			regs[x.res] = heap.IntVal(int64(len(o.Elems)))
		case OpStrgetitem, OpUnicodegetitem:
			m.Ops(isa.ALU, 1)
			regs[x.res] = heap.IntVal(int64(h.LoadByte(regs[x.a].O, int(regs[x.b].I))))
		case OpStrlen, OpUnicodelen:
			o := regs[x.a].O
			m.Load(o.Addr() + 8)
			regs[x.res] = heap.IntVal(int64(len(o.Bytes)))

		case OpNewWithVtable:
			m.Ops(isa.ALU, int(x.n))
			regs[x.res] = heap.RefVal(h.AllocObj(x.shape, int(x.aux)))
		case OpNewArray:
			nf, n := unpackNewArray(x.aux)
			m.Ops(isa.ALU, int(x.n))
			regs[x.res] = heap.RefVal(h.AllocElems(x.shape, nf, n))

		case OpIntAdd:
			regs[x.res] = heap.IntVal(regs[x.a].I + regs[x.b].I)
			m.Ops(isa.ALU, 1)
		case OpIntSub:
			regs[x.res] = heap.IntVal(regs[x.a].I - regs[x.b].I)
			m.Ops(isa.ALU, 1)
		case OpIntMul:
			regs[x.res] = heap.IntVal(regs[x.a].I * regs[x.b].I)
			m.Ops(isa.Mul, 1)
		case OpIntFloorDiv:
			regs[x.res] = heap.IntVal(floorDiv(regs[x.a].I, nonzero(x, regs[x.b].I)))
			m.Block(divModBlock)
		case OpIntMod:
			regs[x.res] = heap.IntVal(floorMod(regs[x.a].I, nonzero(x, regs[x.b].I)))
			m.Block(divModBlock)
		case OpIntAnd:
			regs[x.res] = heap.IntVal(regs[x.a].I & regs[x.b].I)
			m.Ops(isa.ALU, 1)
		case OpIntOr:
			regs[x.res] = heap.IntVal(regs[x.a].I | regs[x.b].I)
			m.Ops(isa.ALU, 1)
		case OpIntXor:
			regs[x.res] = heap.IntVal(regs[x.a].I ^ regs[x.b].I)
			m.Ops(isa.ALU, 1)
		case OpIntLshift:
			regs[x.res] = heap.IntVal(regs[x.a].I << uint(regs[x.b].I&63))
			m.Ops(isa.ALU, 1)
		case OpIntRshift:
			regs[x.res] = heap.IntVal(regs[x.a].I >> uint(regs[x.b].I&63))
			m.Ops(isa.ALU, 1)
		case OpIntNeg:
			regs[x.res] = heap.IntVal(-regs[x.a].I)
			m.Ops(isa.ALU, 1)
		case OpIntLt:
			regs[x.res] = heap.BoolVal(regs[x.a].I < regs[x.b].I)
			m.Ops(isa.ALU, 1)
		case OpIntLe:
			regs[x.res] = heap.BoolVal(regs[x.a].I <= regs[x.b].I)
			m.Ops(isa.ALU, 1)
		case OpIntEq:
			regs[x.res] = heap.BoolVal(regs[x.a].I == regs[x.b].I)
			m.Ops(isa.ALU, 1)
		case OpIntNe:
			regs[x.res] = heap.BoolVal(regs[x.a].I != regs[x.b].I)
			m.Ops(isa.ALU, 1)
		case OpIntGt:
			regs[x.res] = heap.BoolVal(regs[x.a].I > regs[x.b].I)
			m.Ops(isa.ALU, 1)
		case OpIntGe:
			regs[x.res] = heap.BoolVal(regs[x.a].I >= regs[x.b].I)
			m.Ops(isa.ALU, 1)
		case OpIntIsTrue:
			regs[x.res] = heap.BoolVal(regs[x.a].I != 0)
			m.Ops(isa.ALU, 1)
		case OpIntAddOvf:
			r, ovf := addOvf(regs[x.a].I, regs[x.b].I)
			e.lastOvf = ovf
			regs[x.res] = heap.IntVal(r)
			m.Ops(isa.ALU, 1)
		case OpIntSubOvf:
			r, ovf := subOvf(regs[x.a].I, regs[x.b].I)
			e.lastOvf = ovf
			regs[x.res] = heap.IntVal(r)
			m.Ops(isa.ALU, 1)
		case OpIntMulOvf:
			r, ovf := mulOvf(regs[x.a].I, regs[x.b].I)
			e.lastOvf = ovf
			regs[x.res] = heap.IntVal(r)
			m.Block(mulOvfBlock)

		case OpFloatAdd:
			regs[x.res] = heap.FloatVal(regs[x.a].F + regs[x.b].F)
			m.Ops(isa.FPU, 1)
		case OpFloatSub:
			regs[x.res] = heap.FloatVal(regs[x.a].F - regs[x.b].F)
			m.Ops(isa.FPU, 1)
		case OpFloatMul:
			regs[x.res] = heap.FloatVal(regs[x.a].F * regs[x.b].F)
			m.Ops(isa.FMul, 1)
		case OpFloatTruediv:
			regs[x.res] = heap.FloatVal(regs[x.a].F / regs[x.b].F)
			m.Ops(isa.FDiv, 1)
		case OpFloatNeg:
			regs[x.res] = heap.FloatVal(-regs[x.a].F)
			m.Ops(isa.FPU, 1)
		case OpFloatAbs:
			regs[x.res] = heap.FloatVal(math.Abs(regs[x.a].F))
			m.Ops(isa.FPU, 1)
		case OpFloatLt:
			regs[x.res] = heap.BoolVal(regs[x.a].F < regs[x.b].F)
			m.Ops(isa.FPU, 2)
		case OpFloatLe:
			regs[x.res] = heap.BoolVal(regs[x.a].F <= regs[x.b].F)
			m.Ops(isa.FPU, 2)
		case OpFloatEq:
			regs[x.res] = heap.BoolVal(regs[x.a].F == regs[x.b].F)
			m.Ops(isa.FPU, 2)
		case OpFloatNe:
			regs[x.res] = heap.BoolVal(regs[x.a].F != regs[x.b].F)
			m.Ops(isa.FPU, 2)
		case OpFloatGt:
			regs[x.res] = heap.BoolVal(regs[x.a].F > regs[x.b].F)
			m.Ops(isa.FPU, 2)
		case OpFloatGe:
			regs[x.res] = heap.BoolVal(regs[x.a].F >= regs[x.b].F)
			m.Ops(isa.FPU, 2)
		case OpCastIntToFloat:
			regs[x.res] = heap.FloatVal(float64(regs[x.a].I))
			m.Ops(isa.FPU, 1)
		case OpCastFloatToInt:
			regs[x.res] = heap.IntVal(int64(regs[x.a].F))
			m.Ops(isa.FPU, 1)

		case OpPtrEq:
			regs[x.res] = heap.BoolVal(regs[x.a].Eq(regs[x.b]))
			m.Ops(isa.ALU, 1)
		case OpPtrNe:
			regs[x.res] = heap.BoolVal(!regs[x.a].Eq(regs[x.b]))
			m.Ops(isa.ALU, 1)
		case OpSameAs:
			regs[x.res] = regs[x.a]
			m.Ops(isa.ALU, 1)

		default:
			panic("mtjit: cannot execute IR op " + x.opc.Name())
		}
		continue

	guard:
		if ok && e.ForceGuardFail != nil && e.ForceGuardFail(cur, x.op) {
			ok = false
		}
		m.OpsBranch(int(x.n), x.pc, !ok)
		if ok {
			continue
		}
		exit, bridge, next := e.guardFail(cur, x.op, regs)
		if exit != nil {
			return exit
		}
		// Transfer into the bridge.
		cur.putRegs(regs)
		cur, code, regs, base = bridge, bridge.code, next, bridge.regBase
		e.active[depth] = activeFile{cur, regs}
		pc = -1
	}
	panic(fmt.Sprintf("mtjit: trace %d fell off the end (missing jump/finish)", cur.ID))
}

// nonzero returns the divisor of an integer division. The recorder guards
// every division it records, so a zero here is an optimizer bug.
func nonzero(x *inst, d int64) int64 {
	if d == 0 {
		panic("mtjit: cannot execute IR op " + x.opc.Name() + ": zero divisor")
	}
	return d
}

// guardFail handles a failing guard: transfer to an attached bridge (the
// bridge and its filled register file are returned; the caller releases
// the old file), or deoptimize through the blackhole interpreter.
func (e *Engine) guardFail(t *Trace, op *Op, regs []heap.Value) (*ExitState, *Trace, []heap.Value) {
	op.Fails++
	e.stats.GuardFailures++
	s := e.S
	s.Annot(core.TagGuardFail, uint64(op.GuardID))
	// The failing pass retired only the bytecodes before the guard's
	// bytecode; the interpreter (or the bridge, which was recorded from
	// the re-executed bytecode) counts the rest itself.
	if op.BCProgress > 0 {
		s.Annot(core.TagDispatch, uint64(op.BCProgress))
	}

	if bridge := op.Bridge; bridge != nil {
		s.Annot(core.TagBridgeEnter, uint64(bridge.ID))
		// Compute the slot values of the resume state and feed them to
		// the bridge's entry mapping; virtuals are materialized.
		next, nb := bridge.getRegs(), bridge.regBase
		e.materializeVirtuals(t, op.Resume, regs)
		if len(bridge.Entry.Frames) != len(op.Resume.Frames) {
			panic("mtjit: bridge entry does not match guard resume shape")
		}
		for fi := range op.Resume.Frames {
			src := &op.Resume.Frames[fi]
			dst := &bridge.Entry.Frames[fi]
			for si, ref := range src.Slots {
				next[nb+int(dst.Slots[si])] = e.resumeVal(t, regs, ref)
			}
		}
		bridge.ExecCount++
		return nil, bridge, next
	}

	// Deoptimize.
	s.Annot(core.TagJITLeave, uint64(t.ID))
	s.Annot(core.TagBlackholeEnter, uint64(op.GuardID))
	exit := e.materializeFrames(t, op.Resume, regs, true)
	s.Annot(core.TagBlackholeLeave, uint64(op.GuardID))

	exit.GuardID = op.GuardID
	if int(op.Fails) == e.BridgeThreshold {
		exit.StartBridgeGuard = op.GuardID
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
	return regs[t.regBase+int(r)]
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
