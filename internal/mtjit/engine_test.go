package mtjit

import (
	"testing"

	"metajit/internal/aot"
	"metajit/internal/core"
	"metajit/internal/cpu"
	"metajit/internal/heap"
	"metajit/internal/isa"
)

// ---- a minimal guest interpreter exercising the full JIT pipeline ----

type miniOp struct {
	kind    string // "loadk", "loadref", "add", "addk", "lt", "mod", "jmpif", "jmp", "halt", "newpair", "pair", "call"
	a, b, c int
	k       int64
}

type miniCode struct {
	id      uint32
	ops     []miniOp
	headers map[int]bool // backward-jump targets (merge points)
	nRegs   int
}

type miniFrame struct {
	code  *miniCode
	pc    int
	slots []TV
}

func (f *miniFrame) CodeID() uint32 { return f.code.id }
func (f *miniFrame) GuestPC() int   { return f.pc }
func (f *miniFrame) NumLocals() int { return len(f.slots) }
func (f *miniFrame) NumSlots() int  { return len(f.slots) }
func (f *miniFrame) ReadSlot(i int) heap.Value {
	return f.slots[i].V
}
func (f *miniFrame) SetSlotRef(i int, r Ref) { f.slots[i].R = r }
func (f *miniFrame) SlotRef(i int) Ref       { return f.slots[i].R }

type miniVM struct {
	eng      *Engine
	m        *Machine
	tm       *Recorder
	frame    *miniFrame
	pairSh   *heap.Shape
	dispatch isa.Site
	// callFn/callThunk are the residual call the "call" op performs
	// (set by the tests that use it).
	callFn    *aot.Func
	callThunk func(args []heap.Value) heap.Value
	// refConst is the object "loadref" loads: a trace constant that is a
	// heap reference (set, and kept alive, by the test that uses it).
	refConst *heap.Obj
}

func newMiniVM(t *testing.T, mach *cpu.Machine) *miniVM {
	h := heap.New(mach, heap.DefaultConfig())
	rt := aot.NewRuntime(h)
	rt.StrShape = h.NewShape("str", 0)
	eng := NewEngine(rt, FrameworkProfile())
	eng.Threshold = 10
	eng.BridgeThreshold = 5
	vm := &miniVM{
		eng:      eng,
		m:        NewMachine(rt, FrameworkProfile()),
		pairSh:   h.NewShape("pair", 2),
		dispatch: isa.NewSite(),
	}
	h.AddRoots(heap.RootFunc(func(visit func(*heap.Obj)) {
		if vm.frame == nil {
			return
		}
		for _, s := range vm.frame.slots {
			if s.V.Kind == heap.KindRef && s.V.O != nil {
				visit(s.V.O)
			}
		}
	}))
	return vm
}

func (vm *miniVM) snapshot() []FrameSnap {
	f := vm.frame
	slots := make([]Ref, len(f.slots))
	for i, s := range f.slots {
		r := s.R
		if r == RefNone {
			r = vm.tm.intern(s.V)
		}
		slots[i] = r
	}
	return []FrameSnap{{CodeID: f.code.id, PC: f.pc, NumLocals: len(f.slots), Slots: slots}}
}

func (vm *miniVM) applyExit(exit *ExitState) {
	fv := exit.Frames[len(exit.Frames)-1]
	vm.frame.pc = fv.PC
	for i, v := range fv.Vals {
		vm.frame.slots[i] = Concrete(v)
	}
}

// run interprets code until halt, engaging the JIT at loop headers.
func (vm *miniVM) run(code *miniCode, iters int64) heap.Value {
	vm.frame = &miniFrame{code: code, slots: make([]TV, code.nRegs)}
	f := vm.frame
	f.slots[0] = Concrete(heap.IntVal(iters))
	for {
		if f.pc >= len(code.ops) {
			panic("mini: pc out of range")
		}
		if code.headers[f.pc] {
			key := GreenKey{CodeID: code.id, PC: f.pc}
			if vm.tm != nil {
				act := vm.eng.AtMergePoint(vm.tm, key, 1, f)
				if act != MPContinue {
					vm.tm = nil
					vm.m.Record(nil)
					continue
				}
			} else if tr := vm.eng.LookupTrace(key); tr != nil {
				for tr != nil {
					exit := vm.eng.Execute(tr, f)
					vm.applyExit(exit)
					tr = exit.Enter
					if exit.StartBridgeGuard != 0 {
						resume := vm.eng.GuardResume(exit.StartBridgeGuard)
						vm.tm = vm.eng.BeginBridge(exit.StartBridgeGuard, resume,
							[]FrameAdapter{f}, vm.snapshot)
						vm.m.Record(vm.tm)
					}
				}
				continue
			} else if vm.eng.CountAndMaybeTrace(key) {
				vm.tm = vm.eng.BeginTracing(key, f, vm.snapshot)
				vm.m.Record(vm.tm)
			}
		}
		op := &code.ops[f.pc]
		m := vm.m
		m.Dispatch(vm.dispatch.PC(), uint64(f.pc)*16+isa.RegionVMText)
		switch op.kind {
		case "loadk":
			f.slots[op.a] = m.Const(heap.IntVal(op.k))
			f.pc++
		case "loadref":
			f.slots[op.a] = m.Const(heap.RefVal(vm.refConst))
			f.pc++
		case "add":
			f.slots[op.a] = m.IntAdd(f.slots[op.b], f.slots[op.c])
			f.pc++
		case "addk":
			f.slots[op.a] = m.IntAdd(f.slots[op.b], m.Const(heap.IntVal(op.k)))
			f.pc++
		case "lt":
			f.slots[op.a] = m.IntCmp(OpIntLt, f.slots[op.b], f.slots[op.c])
			f.pc++
		case "mod":
			f.slots[op.a] = m.IntMod(f.slots[op.b], m.Const(heap.IntVal(op.k)))
			f.pc++
		case "jmpif":
			if m.Truth(f.slots[op.a], vm.dispatch.PC()+8) {
				f.pc = op.b
			} else {
				f.pc++
			}
		case "jmp":
			f.pc = op.a
		case "newpair":
			// Allocate a pair, store two fields, read one back: escape
			// analysis should remove it entirely inside traces.
			p := m.NewObj(vm.pairSh, 2)
			m.SetField(p, 0, f.slots[op.b])
			m.SetField(p, 1, f.slots[op.c])
			f.slots[op.a] = m.GetField(p, 0)
			f.pc++
		case "pair":
			// Allocate a pair and keep it in a slot.
			p := m.NewObj(vm.pairSh, 2)
			m.SetField(p, 0, f.slots[op.b])
			m.SetField(p, 1, f.slots[op.c])
			f.slots[op.a] = p
			f.pc++
		case "call":
			f.slots[op.a] = m.CallAOT(vm.callFn, vm.callThunk, f.slots[op.b])
			f.pc++
		case "halt":
			if vm.tm != nil {
				vm.eng.AbortTrace(vm.tm, AbortLeftFrame)
				vm.tm = nil
				vm.m.Record(nil)
			}
			return f.slots[op.a].V
		default:
			panic("mini: unknown op " + op.kind)
		}
	}
}

// sumLoop builds: s=0; i=0; while i<n { s+=i; i+=1 }; return s
// slots: 0=n, 1=s, 2=i, 3=tmp
func sumLoop() *miniCode {
	return &miniCode{
		id:    1,
		nRegs: 4,
		ops: []miniOp{
			{kind: "loadk", a: 1, k: 0},      // 0: s = 0
			{kind: "loadk", a: 2, k: 0},      // 1: i = 0
			{kind: "lt", a: 3, b: 2, c: 0},   // 2: tmp = i < n   <- loop header
			{kind: "jmpif", a: 3, b: 5},      // 3: if tmp goto 5
			{kind: "jmp", a: 8},              // 4: exit
			{kind: "add", a: 1, b: 1, c: 2},  // 5: s += i
			{kind: "addk", a: 2, b: 2, k: 1}, // 6: i += 1
			{kind: "jmp", a: 2},              // 7: goto 2
			{kind: "halt", a: 1},             // 8
		},
		headers: map[int]bool{2: true},
	}
}

// branchyLoop: s=0; i=0; while i<n { if i%3==0 {s+=7} else {s+=1}; i+=1 }
// slots: 0=n 1=s 2=i 3=tmp 4=tmp2
func branchyLoop() *miniCode {
	return &miniCode{
		id:    2,
		nRegs: 5,
		ops: []miniOp{
			{kind: "loadk", a: 1, k: 0},      // 0
			{kind: "loadk", a: 2, k: 0},      // 1
			{kind: "lt", a: 3, b: 2, c: 0},   // 2: header
			{kind: "jmpif", a: 3, b: 5},      // 3
			{kind: "jmp", a: 12},             // 4: exit
			{kind: "mod", a: 4, b: 2, k: 3},  // 5: tmp2 = i % 3
			{kind: "jmpif", a: 4, b: 9},      // 6: if tmp2 != 0 -> 9
			{kind: "addk", a: 1, b: 1, k: 7}, // 7: s += 7
			{kind: "jmp", a: 10},             // 8
			{kind: "addk", a: 1, b: 1, k: 1}, // 9: s += 1
			{kind: "addk", a: 2, b: 2, k: 1}, // 10: i += 1
			{kind: "jmp", a: 2},              // 11
			{kind: "halt", a: 1},             // 12
		},
		headers: map[int]bool{2: true},
	}
}

// allocLoop: like sumLoop but each iteration allocates a pair that should
// be removed by escape analysis.
func allocLoop() *miniCode {
	return &miniCode{
		id:    3,
		nRegs: 4,
		ops: []miniOp{
			{kind: "loadk", a: 1, k: 0},         // 0
			{kind: "loadk", a: 2, k: 0},         // 1
			{kind: "lt", a: 3, b: 2, c: 0},      // 2: header
			{kind: "jmpif", a: 3, b: 5},         // 3
			{kind: "jmp", a: 9},                 // 4: exit
			{kind: "newpair", a: 3, b: 2, c: 1}, // 5: tmp = pair(i, s).fst
			{kind: "add", a: 1, b: 1, c: 3},     // 6: s += tmp
			{kind: "addk", a: 2, b: 2, k: 1},    // 7
			{kind: "jmp", a: 2},                 // 8
			{kind: "halt", a: 1},                // 9
		},
		headers: map[int]bool{2: true},
	}
}

func TestJITSumLoopCorrectAndCompiled(t *testing.T) {
	mach := cpu.NewDefault()
	attachPhaseSwitcher(mach)
	vm := newMiniVM(t, mach)
	const n = 5000
	got := vm.run(sumLoop(), n)
	want := int64(n) * (n - 1) / 2
	if got.I != want {
		t.Fatalf("sum = %d, want %d", got.I, want)
	}
	st := vm.eng.Stats()
	if st.LoopsCompiled != 1 {
		t.Fatalf("loops compiled = %d, want 1", st.LoopsCompiled)
	}
	tr := vm.eng.Traces()[0]
	if tr.ExecCount < n/2 {
		t.Errorf("trace executed only %d times", tr.ExecCount)
	}
	// The trace body should be tight: a couple of arithmetic ops, a
	// couple of guards, and the jump.
	if n := len(tr.Ops); n > 12 {
		for _, op := range tr.Ops {
			t.Logf("  %s", op.String())
		}
		t.Errorf("optimized trace has %d ops; optimizer not working", n)
	}
}

func TestJITvsInterpreterSameResult(t *testing.T) {
	for _, code := range []*miniCode{sumLoop(), branchyLoop(), allocLoop()} {
		machJ := cpu.NewDefault()
		attachPhaseSwitcher(machJ)
		vmJ := newMiniVM(t, machJ)

		machI := cpu.NewDefault()
		vmI := newMiniVM(t, machI)
		vmI.eng.Threshold = 1 << 30 // never JIT

		rJ := vmJ.run(code, 3000)
		rI := vmI.run(code, 3000)
		if rJ.I != rI.I {
			t.Errorf("code %d: JIT=%d interp=%d", code.id, rJ.I, rI.I)
		}
		if vmJ.eng.Stats().LoopsCompiled == 0 {
			t.Errorf("code %d: nothing compiled", code.id)
		}
	}
}

func TestBridgeCompilation(t *testing.T) {
	mach := cpu.NewDefault()
	attachPhaseSwitcher(mach)
	vm := newMiniVM(t, mach)
	got := vm.run(branchyLoop(), 9000)
	// Expected: ceil(n/3)*7 + (n - ceil(n/3))*1
	third := int64(3000)
	want := third*7 + (9000-third)*1
	if got.I != want {
		t.Fatalf("branchy sum = %d, want %d", got.I, want)
	}
	st := vm.eng.Stats()
	if st.BridgesCompiled == 0 {
		t.Fatalf("no bridge compiled for a 1/3-taken guard")
	}
	// After the bridge exists, guard failures no longer deopt; the
	// bridge itself should be hot.
	var bridge *Trace
	for _, tr := range vm.eng.Traces() {
		if tr.Bridge {
			bridge = tr
		}
	}
	if bridge == nil || bridge.ExecCount < 1000 {
		t.Fatalf("bridge under-executed: %+v", bridge)
	}
}

func TestEscapeAnalysisRemovesAllocation(t *testing.T) {
	mach := cpu.NewDefault()
	attachPhaseSwitcher(mach)
	vm := newMiniVM(t, mach)
	vm.run(allocLoop(), 4000)
	if vm.eng.Stats().LoopsCompiled == 0 {
		t.Fatalf("alloc loop not compiled")
	}
	tr := vm.eng.Traces()[0]
	for _, op := range tr.Ops {
		if op.Opc == OpNewWithVtable {
			t.Fatalf("new_with_vtable survived escape analysis:\n%v", dumpOps(tr))
		}
	}
	// With the allocation removed, steady-state allocations should be
	// far fewer than iterations.
	allocs := vm.eng.H.Stats().AllocObjects
	if allocs > 1000 {
		t.Errorf("%d allocations despite escape analysis", allocs)
	}
}

func dumpOps(tr *Trace) string {
	s := ""
	for i := range tr.Ops {
		s += tr.Ops[i].String() + "\n"
	}
	return s
}

func TestDeoptRestoresInterpreterState(t *testing.T) {
	// Run a loop with few iterations beyond the threshold so that the
	// loop-exit guard fails exactly once and deopt must produce the
	// correct final state.
	mach := cpu.NewDefault()
	attachPhaseSwitcher(mach)
	vm := newMiniVM(t, mach)
	const n = 61 // threshold is 10; trace runs then exits via guard
	got := vm.run(sumLoop(), n)
	want := int64(n) * (n - 1) / 2
	if got.I != want {
		t.Fatalf("after deopt: sum = %d, want %d", got.I, want)
	}
}

func TestAnnotationsEmittedDuringJIT(t *testing.T) {
	mach := cpu.NewDefault()
	attachPhaseSwitcher(mach)
	counts := map[core.Tag]int{}
	mach.Observe(core.ObserverFunc(func(a core.Annotation, _, _ uint64) {
		counts[a.Tag]++
	}))
	vm := newMiniVM(t, mach)
	vm.run(sumLoop(), 5000)
	for _, tag := range []core.Tag{core.TagTraceStart, core.TagTraceEnd, core.TagJITEnter, core.TagDispatch} {
		if counts[tag] == 0 {
			t.Errorf("missing annotation %v during JIT run", tag)
		}
	}
	if counts[core.TagTraceStart] != counts[core.TagTraceEnd]+counts[core.TagTraceAbort] {
		t.Errorf("unbalanced trace start/end: %v", counts)
	}
}

// attachPhaseSwitcher wires a minimal phase tracker so that per-phase
// accounting in these tests is sensible (the real one lives in pintool).
func attachPhaseSwitcher(m *cpu.Machine) {
	var stack []core.Phase
	cur := core.PhaseInterp
	push := func(p core.Phase) {
		stack = append(stack, cur)
		cur = p
		m.SetPhase(p)
	}
	pop := func() {
		if len(stack) > 0 {
			cur = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		}
		m.SetPhase(cur)
	}
	m.Observe(core.ObserverFunc(func(a core.Annotation, _, _ uint64) {
		switch a.Tag {
		case core.TagTraceStart:
			push(core.PhaseTracing)
		case core.TagTraceEnd, core.TagTraceAbort:
			pop()
		case core.TagJITEnter:
			push(core.PhaseJIT)
		case core.TagJITLeave:
			pop()
		case core.TagAOTCallEnter:
			push(core.PhaseJITCall)
		case core.TagAOTCallLeave:
			pop()
		case core.TagGCMinorStart, core.TagGCMajorStart:
			push(core.PhaseGC)
		case core.TagGCMinorEnd, core.TagGCMajorEnd:
			pop()
		case core.TagBlackholeEnter:
			push(core.PhaseBlackhole)
		case core.TagBlackholeLeave:
			pop()
		}
	}))
}

func TestJITPhaseDominatesSteadyState(t *testing.T) {
	mach := cpu.NewDefault()
	attachPhaseSwitcher(mach)
	vm := newMiniVM(t, mach)
	vm.run(sumLoop(), 200000)
	jit := mach.PhaseCounters(core.PhaseJIT).Instrs
	interp := mach.PhaseCounters(core.PhaseInterp).Instrs
	if jit < interp {
		t.Errorf("steady-state loop: jit=%d instrs < interp=%d", jit, interp)
	}
	// And JIT-compiled code must be much cheaper per iteration than
	// interpretation: total instructions should be far below an
	// interpreter-only run.
	machI := cpu.NewDefault()
	vmI := newMiniVM(t, machI)
	vmI.eng.Threshold = 1 << 30
	vmI.run(sumLoop(), 200000)
	if mach.TotalCycles() > machI.TotalCycles()/2 {
		t.Errorf("JIT speedup too small: jit cycles=%.0f interp cycles=%.0f",
			mach.TotalCycles(), machI.TotalCycles())
	}
}

func (f *miniFrame) IsCtor() bool { return false }
