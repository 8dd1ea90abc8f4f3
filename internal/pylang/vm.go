package pylang

import (
	"fmt"

	"metajit/internal/heap"
	"metajit/internal/isa"
	"metajit/internal/mtjit"
)

// Frame is one guest call frame. Locals and operand stack hold TVs so the
// same evaluator works in plain interpretation and under the tracing
// meta-interpreter.
type Frame struct {
	Code   *Code
	PC     int
	Locals []mtjit.TV
	Stack  []mtjit.TV
	// ctor marks a constructor (__init__) frame: its return value is
	// discarded because the instance was pushed onto the caller's stack
	// before the call. The flag travels through resume data so frames
	// rebuilt by deoptimization behave identically.
	ctor bool

	// snapPC/snapStack capture the pre-instruction state of the frame
	// while tracing: guards fire mid-bytecode (operands already popped),
	// but deoptimization must resume at the bytecode boundary and
	// re-execute the whole instruction, as in PyPy's resume data.
	snapPC    int
	snapStack []mtjit.TV
}

var _ mtjit.FrameAdapter = (*Frame)(nil)

// CodeID implements mtjit.FrameAdapter.
func (f *Frame) CodeID() uint32 { return f.Code.ID }

// GuestPC implements mtjit.FrameAdapter.
func (f *Frame) GuestPC() int { return f.PC }

// NumLocals implements mtjit.FrameAdapter.
func (f *Frame) NumLocals() int { return len(f.Locals) }

// NumSlots implements mtjit.FrameAdapter.
func (f *Frame) NumSlots() int { return len(f.Locals) + len(f.Stack) }

// ReadSlot implements mtjit.FrameAdapter.
func (f *Frame) ReadSlot(i int) heap.Value {
	if i < len(f.Locals) {
		return f.Locals[i].V
	}
	return f.Stack[i-len(f.Locals)].V
}

// SetSlotRef implements mtjit.FrameAdapter.
func (f *Frame) SetSlotRef(i int, r mtjit.Ref) {
	if i < len(f.Locals) {
		f.Locals[i].R = r
	} else {
		f.Stack[i-len(f.Locals)].R = r
	}
}

// IsCtor implements mtjit.FrameAdapter.
func (f *Frame) IsCtor() bool { return f.ctor }

// SlotRef implements mtjit.FrameAdapter.
func (f *Frame) SlotRef(i int) mtjit.Ref {
	if i < len(f.Locals) {
		return f.Locals[i].R
	}
	return f.Stack[i-len(f.Locals)].R
}

// newFrame returns a frame with numLocals zeroed locals, reusing a
// pooled frame when one is available.
func (vm *VM) newFrame(code *Code, numLocals int, ctor bool) *Frame {
	if k := len(vm.framePool); k > 0 {
		f := vm.framePool[k-1]
		vm.framePool = vm.framePool[:k-1]
		f.Code = code
		f.PC = 0
		f.ctor = ctor
		f.snapPC = 0
		f.Stack = f.Stack[:0]
		f.snapStack = f.snapStack[:0]
		if cap(f.Locals) >= numLocals {
			f.Locals = f.Locals[:numLocals]
			for i := range f.Locals {
				f.Locals[i] = mtjit.TV{}
			}
		} else {
			f.Locals = make([]mtjit.TV, numLocals)
		}
		return f
	}
	return &Frame{Code: code, Locals: make([]mtjit.TV, numLocals), ctor: ctor}
}

// releaseFrame returns a popped frame to the pool. The caller must not
// touch f afterwards. Frames that unwind through guest errors simply
// miss the pool.
func (vm *VM) releaseFrame(f *Frame) {
	if f == vm.tierFrame {
		// Tier residency still compares against this pointer at the
		// next dispatch; let it drop instead of risking pointer reuse.
		return
	}
	f.Code = nil
	vm.framePool = append(vm.framePool, f)
}

func (f *Frame) push(v mtjit.TV) { f.Stack = append(f.Stack, v) }

func (f *Frame) pop() mtjit.TV {
	v := f.Stack[len(f.Stack)-1]
	f.Stack = f.Stack[:len(f.Stack)-1]
	return v
}

func (f *Frame) peek(n int) mtjit.TV { return f.Stack[len(f.Stack)-1-n] }

// GuestError is a guest-level runtime error (TypeError, IndexError, ...).
type GuestError struct{ Msg string }

func (e *GuestError) Error() string { return "pylang: " + e.Msg }

func (vm *VM) throw(format string, args ...any) {
	panic(&GuestError{Msg: fmt.Sprintf(format, args...)})
}

// LoadModule compiles and executes src as the main module.
func (vm *VM) LoadModule(name, src string) error {
	code, err := vm.CompileModule(name, src)
	if err != nil {
		return err
	}
	vm.codeIndex[code.ID] = code
	fr := &Frame{Code: code, Locals: make([]mtjit.TV, code.NumLocals)}
	vm.frames = append(vm.frames, fr)
	vm.inModuleInit = true
	vm.run(len(vm.frames) - 1)
	vm.inModuleInit = false
	return nil
}

// RunFunction calls a module-level function by name.
func (vm *VM) RunFunction(name string, args ...heap.Value) heap.Value {
	gv, ok := vm.globals[name]
	if !ok {
		vm.throw("no function %q", name)
	}
	abase := len(vm.callBuf)
	for _, a := range args {
		vm.callBuf = append(vm.callBuf, mtjit.Concrete(a))
	}
	base := len(vm.frames)
	vm.pushCall(vm.m, mtjit.Concrete(gv), vm.callBuf[abase:], false)
	vm.callBuf = vm.callBuf[:abase]
	return vm.run(base)
}

// snapshot builds resume metadata for the frames covered by the active
// recording. The innermost frame resumes at its pre-instruction state
// (snapPC/snapStack); outer frames are parked mid-CALL and resume after
// their call instruction with the callee's result arriving via RETURN.
func (vm *VM) snapshot() []mtjit.FrameSnap {
	frames := vm.frames[vm.traceRoot:]
	out := make([]mtjit.FrameSnap, 0, len(frames))
	for fi, f := range frames {
		pc := f.PC
		stack := f.Stack
		if fi == len(frames)-1 {
			pc = f.snapPC
			stack = f.snapStack
		}
		slots := make([]mtjit.Ref, len(f.Locals)+len(stack))
		for i := range f.Locals {
			r := f.Locals[i].R
			if r == mtjit.RefNone {
				r = vm.tm.RefOf(f.Locals[i])
				f.Locals[i].R = r
			}
			slots[i] = r
		}
		for i := range stack {
			r := stack[i].R
			if r == mtjit.RefNone {
				r = vm.tm.RefOf(stack[i])
				stack[i].R = r
			}
			slots[len(f.Locals)+i] = r
		}
		out = append(out, mtjit.FrameSnap{
			CodeID:    f.Code.ID,
			PC:        pc,
			NumLocals: len(f.Locals),
			Slots:     slots,
			Ctor:      f.ctor,
		})
	}
	return out
}

// applyExit rebuilds interpreter frames after a trace exits.
func (vm *VM) applyExit(exit *mtjit.ExitState) {
	old := vm.frames[len(vm.frames)-1]
	vm.frames = vm.frames[:len(vm.frames)-1]
	vm.releaseFrame(old)
	for _, fv := range exit.Frames {
		code := vm.codeIndex[fv.CodeID]
		if code == nil {
			panic(fmt.Sprintf("pylang: deopt to unknown code %d", fv.CodeID))
		}
		nf := vm.newFrame(code, fv.NumLocals, fv.Ctor)
		nf.PC = fv.PC
		for i := 0; i < fv.NumLocals; i++ {
			nf.Locals[i] = mtjit.Concrete(fv.Vals[i])
		}
		for i := fv.NumLocals; i < len(fv.Vals); i++ {
			nf.push(mtjit.Concrete(fv.Vals[i]))
		}
		vm.frames = append(vm.frames, nf)
	}
}

// mergePoint handles jit bookkeeping at a loop header. It reports whether
// the interpreter should re-dispatch (frame state was changed by a trace).
func (vm *VM) mergePoint(f *Frame) bool {
	if vm.Eng == nil {
		return false
	}
	key := mtjit.GreenKey{CodeID: f.Code.ID, PC: f.PC}
	if vm.tm != nil {
		depth := len(vm.frames) - vm.traceRoot
		act := vm.Eng.AtMergePoint(vm.tm, key, depth, f)
		if act != mtjit.MPContinue {
			vm.tm = nil
			vm.m.Record(nil)
		}
		return false
	}
	if tr := vm.Eng.LookupTrace(key); tr != nil {
		vm.leaveTier()
		vm.runTrace(tr)
		return true
	}
	switch vm.Eng.CountAtHeader(key) {
	case mtjit.TierTrace:
		// Promotion: tracing records from the interpreter; any tier
		// residency ends here, and installing the loop trace will
		// invalidate the superseded baseline code.
		vm.leaveTier()
		vm.traceRoot = len(vm.frames) - 1
		vm.tm = vm.Eng.BeginTracing(key, f, vm.snapshot)
		vm.tm.UseUnicodeOps = vm.UnicodeStrings
		vm.m.Record(vm.tm)
		return false
	case mtjit.TierMethod:
		// Amalgamation: the whole enclosing function compiles (and
		// supersedes its baseline fragments) while any baseline
		// residency is still open; the takeover happens below.
		vm.compileTier(mtjit.MethodTier, f, 0, len(f.Code.Instrs)-1)
	case mtjit.TierBaseline:
		vm.compileTier(mtjit.BaselineTier, f, f.PC, loopEnd(f.Code, f.PC))
	}
	// Residency: the engine's code for this header takes the frame
	// unless it is already running (an inner loop's baseline code
	// displaces the outer loop's; method code displaces baseline code).
	if c := vm.Eng.LookupTier(key); c != nil && c != vm.tierCode {
		vm.leaveTier()
		vm.enterTier(c, f)
	}
	return false
}

// runTrace executes a compiled trace (and any call_assembler successors),
// applying exits and starting bridge recordings when guards get hot.
func (vm *VM) runTrace(tr *mtjit.Trace) {
	for tr != nil {
		f := vm.frames[len(vm.frames)-1]
		exit := vm.Eng.Execute(tr, f)
		vm.applyExit(exit)
		tr = exit.Enter
		if exit.StartBridgeGuard != 0 {
			resume := vm.Eng.GuardResume(exit.StartBridgeGuard)
			n := len(exit.Frames)
			vm.traceRoot = len(vm.frames) - n
			adapters := make([]mtjit.FrameAdapter, n)
			for i := 0; i < n; i++ {
				adapters[i] = vm.frames[vm.traceRoot+i]
			}
			vm.tm = vm.Eng.BeginBridge(exit.StartBridgeGuard, resume, adapters, vm.snapshot)
			vm.tm.UseUnicodeOps = vm.UnicodeStrings
			vm.m.Record(vm.tm)
		}
	}
}

// run is the dispatch loop: it interprets frames above base until the
// frame at base returns, and returns that value.
func (vm *VM) run(base int) heap.Value {
	for {
		if vm.tierCode != nil {
			vm.checkResidency()
		}
		f := vm.frames[len(vm.frames)-1]
		code := f.Code
		if vm.tm != nil {
			f.snapPC = f.PC
			f.snapStack = append(f.snapStack[:0], f.Stack...)
		}
		if f.PC < len(code.Headers) && code.Headers[f.PC] {
			if vm.mergePoint(f) {
				continue
			}
			f = vm.frames[len(vm.frames)-1]
			code = f.Code
			if vm.tm != nil {
				// Tracing may have just started at this merge point.
				f.snapPC = f.PC
				f.snapStack = append(f.snapStack[:0], f.Stack...)
			}
		}
		in := code.Instrs[f.PC]
		m := vm.m
		site := code.Site(f.PC)
		if c := vm.tierCode; c != nil {
			// Resident in lower-tier code: the dispatch site is the
			// compiled fragment's own address (per-fragment indirect
			// branches predict far better than the shared switch), and
			// guard identities reset per bytecode.
			vm.resid[c.Tier].BeginOp(f.PC)
			site = c.SitePC(f.PC)
		}
		m.Dispatch(site, HandlerPC(in.Op))
		f.PC++

		switch in.Op {
		case BCLoadConst:
			f.push(m.Const(code.Consts[in.Arg]))
		case BCLoadLocal:
			f.push(f.Locals[in.Arg])
		case BCStoreLocal:
			f.Locals[in.Arg] = f.pop()
		case BCLoadGlobal:
			f.push(vm.loadGlobal(m, code.Names[in.Arg]))
		case BCStoreGlobal:
			vm.storeGlobal(m, code.Names[in.Arg], f.pop())
		case BCLoadAttr:
			vm.loadAttr(m, f, code.Names[in.Arg])
		case BCStoreAttr:
			vm.storeAttr(m, f, code.Names[in.Arg])
		case BCBinary:
			b := f.pop()
			a := f.pop()
			f.push(vm.binary(m, BinKind(in.Arg), a, b))
		case BCCompare:
			b := f.pop()
			a := f.pop()
			f.push(vm.compare(m, CmpKind(in.Arg), a, b))
		case BCUnaryNeg:
			f.push(vm.unaryNeg(m, f.pop()))
		case BCUnaryNot:
			t := vm.truthy(m, f.pop(), code.Site(f.PC-1)+4)
			f.push(m.Const(heap.BoolVal(!t)))
		case BCJump:
			f.PC = int(in.Arg)
		case BCPopJumpIfFalse:
			if !vm.truthy(m, f.pop(), code.Site(f.PC-1)+4) {
				f.PC = int(in.Arg)
			}
		case BCPopJumpIfTrue:
			if vm.truthy(m, f.pop(), code.Site(f.PC-1)+4) {
				f.PC = int(in.Arg)
			}
		case BCJumpIfFalseOrPop:
			if !vm.truthy(m, f.peek(0), code.Site(f.PC-1)+4) {
				f.PC = int(in.Arg)
			} else {
				f.pop()
			}
		case BCJumpIfTrueOrPop:
			if vm.truthy(m, f.peek(0), code.Site(f.PC-1)+4) {
				f.PC = int(in.Arg)
			} else {
				f.pop()
			}
		case BCCall:
			n := int(in.Arg)
			if cap(vm.argScratch) < n {
				vm.argScratch = make([]mtjit.TV, n)
			}
			args := vm.argScratch[:n]
			for i := n - 1; i >= 0; i-- {
				args[i] = f.pop()
			}
			callee := f.pop()
			vm.pushCall(m, callee, args, false)
		case BCReturn:
			res := f.pop()
			vm.frames = vm.frames[:len(vm.frames)-1]
			if vm.tm != nil && len(vm.frames) <= vm.traceRoot {
				vm.Eng.AbortTrace(vm.tm, mtjit.AbortLeftFrame)
				vm.tm = nil
				m.Record(nil)
			}
			if len(vm.frames) == base {
				// Compiled regions can cover the return (method code
				// always does, a loop extent does when the loop body
				// returns), so residency can still be live here; end it
				// before run() exits or the tier's span outlives the
				// stream and the next call runs on the tier's machine.
				if f == vm.tierFrame {
					vm.leaveTier()
				}
				vm.releaseFrame(f)
				return res.V
			}
			m.GuestReturn()
			if !f.ctor {
				// Constructor returns are discarded: the instance is
				// already on the caller's stack.
				vm.frames[len(vm.frames)-1].push(res)
			}
			vm.releaseFrame(f)
		case BCPop:
			f.pop()
		case BCDup:
			f.push(f.peek(0))
		case BCDup2:
			a := f.peek(1)
			b := f.peek(0)
			f.push(a)
			f.push(b)
		case BCBuildList:
			n := int(in.Arg)
			lst := m.NewArray(vm.ListShape, 0, n)
			for i := n - 1; i >= 0; i-- {
				m.SetElem(lst, m.Const(heap.IntVal(int64(i))), f.pop())
			}
			f.push(lst)
		case BCBuildTuple:
			n := int(in.Arg)
			tup := m.NewArray(vm.TupleShape, 0, n)
			for i := n - 1; i >= 0; i-- {
				m.SetElem(tup, m.Const(heap.IntVal(int64(i))), f.pop())
			}
			f.push(tup)
		case BCBuildDict:
			n := int(in.Arg)
			pairs := make([]mtjit.TV, 2*n)
			for i := 2*n - 1; i >= 0; i-- {
				pairs[i] = f.pop()
			}
			d := vm.newDict(m)
			for i := 0; i < n; i++ {
				vm.dictSet(m, d, pairs[2*i], pairs[2*i+1])
			}
			f.push(d)
		case BCIndex:
			i := f.pop()
			o := f.pop()
			f.push(vm.index(m, o, i))
		case BCStoreIndex:
			v := f.pop()
			i := f.pop()
			o := f.pop()
			vm.storeIndex(m, o, i, v)
		case BCSlice:
			hi := f.pop()
			lo := f.pop()
			o := f.pop()
			f.push(vm.slice(m, o, lo, hi))
		case BCStoreSlice:
			v := f.pop()
			hi := f.pop()
			lo := f.pop()
			o := f.pop()
			vm.storeSlice(m, o, lo, hi, v)
		case BCUnpack2:
			v := f.pop()
			sh := m.ShapeOf(v)
			if sh != vm.TupleShape && sh != vm.ListShape {
				vm.throw("cannot unpack %s", sh.Name)
			}
			f.push(m.GetElem(v, m.Const(heap.IntVal(1))))
			f.push(m.GetElem(v, m.Const(heap.IntVal(0))))
		case BCLen:
			f.push(vm.length(m, f.pop()))
		case BCIterPrep:
			f.push(vm.iterPrep(m, f.pop()))
		default:
			vm.throw("bad opcode %v", in.Op)
		}
	}
}

// lookupGlobal resolves name against the module globals with builtin
// fallback, charging the module-dict lookup cost.
func (vm *VM) lookupGlobal(name string) heap.Value {
	vm.H.Stream().Block(globalReadBlock)
	v, ok := vm.globals[name]
	if !ok {
		bo, ok2 := vm.builtins[name]
		if !ok2 {
			vm.throw("name %q is not defined", name)
		}
		v = heap.RefVal(bo)
	}
	return v
}

// loadGlobal implements BCLoadGlobal. Globals never stored to after
// module initialization are promoted to trace constants under
// guard_not_invalidated — the versioned-dict fast path. Mutated
// globals cannot be folded: the trace re-reads the module dict through
// a residual ll_call_lookup_function call on every execution.
func (vm *VM) loadGlobal(m *mtjit.Machine, name string) mtjit.TV {
	if vm.tm != nil && vm.mutatedGlobals[name] {
		return m.CallAOT(vm.fnDictLookup, func([]heap.Value) heap.Value {
			return vm.lookupGlobal(name)
		})
	}
	v := vm.lookupGlobal(name)
	if vm.tm != nil {
		vm.tm.DependOnGlobal(name)
	}
	return m.Const(v)
}

// storeGlobal implements BCStoreGlobal. A store to a name the active
// recording has constant-folded aborts the recording — the folded
// constant is already stale. Otherwise the store is recorded as a
// residual ll_dict_setitem call so compiled code performs it too.
func (vm *VM) storeGlobal(m *mtjit.Machine, name string, v mtjit.TV) {
	if vm.tm != nil {
		if vm.tm.DependsOnGlobal(name) {
			vm.tm.Abort(mtjit.AbortForced)
		}
		m.CallAOT(vm.fnDictSet, func(args []heap.Value) heap.Value {
			vm.setGlobal(name, args[0])
			return heap.Nil
		}, v)
		return
	}
	vm.setGlobal(name, v.V)
}

// Module-dict access instruction mixes (hash, probe, compare), retired
// as single blocks.
var (
	globalReadBlock  = isa.NewBlock(isa.CC(isa.ALU, 6), isa.CC(isa.Load, 3))
	globalWriteBlock = isa.NewBlock(isa.CC(isa.ALU, 6), isa.CC(isa.Load, 3), isa.CC(isa.Store, 2))
)

// setGlobal is the store slow path shared by the interpreter and
// residual store calls executing inside traces: it writes the module
// dict, marks the name mutated (definition-time stores in the module
// body don't count), and invalidates every trace that constant-folded
// the old value.
func (vm *VM) setGlobal(name string, v heap.Value) {
	vm.H.Stream().Block(globalWriteBlock)
	vm.globals[name] = v
	if vm.inModuleInit {
		return
	}
	vm.mutatedGlobals[name] = true
	if vm.Eng != nil {
		vm.Eng.InvalidateGlobal(name)
	}
}

// pushCall dispatches a call to a function, class, bound method, or
// builtin. ctor marks constructor frames (return value discarded).
func (vm *VM) pushCall(m *mtjit.Machine, callee mtjit.TV, args []mtjit.TV, ctor bool) {
	sh := m.ShapeOf(callee)
	switch sh {
	case vm.FuncShape:
		fo := m.PromoteRef(callee)
		fn := fo.Native.(*Function)
		code := fn.Code
		if len(args) != code.NumParams {
			vm.throw("%s() takes %d arguments (%d given)", fn.Name, code.NumParams, len(args))
		}
		m.GuestCall(code.Site(0))
		nf := vm.newFrame(code, code.NumLocals, ctor)
		copy(nf.Locals, args)
		vm.frames = append(vm.frames, nf)
	case vm.BoundShape:
		self := m.GetField(callee, 0)
		fnv := m.GetField(callee, 1)
		vm.pushCallWith(m, fnv, self, args, ctor)
	case vm.ClassShape:
		co := m.PromoteRef(callee)
		cls := co.Native.(*Class)
		inst := m.NewObj(cls.Shape, len(cls.FieldIdx))
		if initO, ok := cls.lookupMethod("__init__"); ok {
			// The instance goes onto the caller's stack before the
			// __init__ frame; the constructor's own return value is
			// discarded. Deoptimization rebuilds the same shape.
			vm.frames[len(vm.frames)-1].push(inst)
			vm.pushCallWith(m, m.Const(heap.RefVal(initO)), inst, args, true)
		} else {
			if len(args) != 0 {
				vm.throw("%s() takes no arguments", cls.Name)
			}
			vm.frames[len(vm.frames)-1].push(inst)
		}
	case vm.BuiltinShape:
		bo := m.PromoteRef(callee)
		b := bo.Native.(*Builtin)
		res := b.Fn(vm, m, args)
		vm.frames[len(vm.frames)-1].push(res)
	default:
		vm.throw("%s object is not callable", sh.Name)
	}
}

// pushCallWith is pushCall with first prepended to args (a bound
// method's self, a constructor's instance). The argument list is built on
// vm.callBuf used as a stack, so the nested pushCall a bound constructor
// makes builds its own list above this one; args may itself be a window
// of callBuf (append copies before it moves the buffer).
func (vm *VM) pushCallWith(m *mtjit.Machine, callee, first mtjit.TV, args []mtjit.TV, ctor bool) {
	base := len(vm.callBuf)
	vm.callBuf = append(append(vm.callBuf, first), args...)
	vm.pushCall(m, callee, vm.callBuf[base:], ctor)
	vm.callBuf = vm.callBuf[:base]
}
