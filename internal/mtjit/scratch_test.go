package mtjit

import (
	"testing"

	"metajit/internal/aot"
	"metajit/internal/cpu"
	"metajit/internal/heap"
)

// probeLoop is branchyLoop with a pair allocated and handed to a residual
// call on every iteration, after the branch joins — so the call runs in
// the loop trace, in the bridge, and after the bridge jumps back. The
// pair's second field is a constant heap reference, loaded into a slot
// that holds an integer again before the loop closes: the object is a
// constant of every trace and never a loop-carried register.
// slots: 0=n 1=s 2=i 3=tmp 4=tmp2 5=p 6=k
func probeLoop() *miniCode {
	return &miniCode{
		id:    4,
		nRegs: 7,
		ops: []miniOp{
			{kind: "loadk", a: 1, k: 0},      // 0
			{kind: "loadk", a: 2, k: 0},      // 1
			{kind: "lt", a: 3, b: 2, c: 0},   // 2: header
			{kind: "jmpif", a: 3, b: 5},      // 3
			{kind: "jmp", a: 17},             // 4: exit
			{kind: "mod", a: 4, b: 2, k: 3},  // 5: tmp2 = i % 3
			{kind: "jmpif", a: 4, b: 9},      // 6
			{kind: "addk", a: 1, b: 1, k: 7}, // 7: s += 7
			{kind: "jmp", a: 10},             // 8
			{kind: "addk", a: 1, b: 1, k: 1}, // 9: s += 1
			{kind: "loadref", a: 6},          // 10: k = the constant object
			{kind: "pair", a: 5, b: 2, c: 6}, // 11: p = pair(i, k)
			{kind: "loadk", a: 6, k: 0},      // 12: k = 0
			{kind: "call", a: 3, b: 5},       // 13: tmp = probe(p)
			{kind: "add", a: 1, b: 1, c: 3},  // 14: s += tmp
			{kind: "addk", a: 2, b: 2, k: 1}, // 15: i += 1
			{kind: "jmp", a: 2},              // 16
			{kind: "halt", a: 1},             // 17
		},
		headers: map[int]bool{2: true},
	}
}

// TestRootsFollowRegisterFileTransfers forces a simulated collection
// inside a residual call made from compiled code and demands that the
// call's argument — an object only the trace registers hold — survives
// it, in the loop, right after a guard transferred into a bridge, and
// after the bridge jumped back: Engine.Roots must scan the register file
// in use, not the one Execute started with. And it must scan only the
// file's registers: the constant object in the file's constant area is
// visited once per trace, through Trace.Consts.
func TestRootsFollowRegisterFileTransfers(t *testing.T) {
	mach := cpu.NewDefault()
	attachPhaseSwitcher(mach)
	vm := newMiniVM(t, mach)
	eng := vm.eng
	vm.callFn = eng.RT.Register("test.probe", aot.SrcIntrinsic)
	vm.refConst = eng.H.AllocObj(vm.pairSh, 2)
	eng.H.AddRoots(heap.RootFunc(func(visit func(*heap.Obj)) { visit(vm.refConst) }))

	var inTrace, inBridge int
	var lastBridgeExecs uint64
	vm.callThunk = func(args []heap.Value) heap.Value {
		o := args[0].O
		if len(eng.active) == 0 {
			return heap.IntVal(1) // interpreter or recorder: the frame roots it
		}
		inTrace++
		for _, tr := range eng.Traces() {
			if tr.Bridge && tr.ExecCount != lastBridgeExecs {
				lastBridgeExecs = tr.ExecCount
				inBridge++
			}
		}
		eng.H.Minor()
		if !o.Live() {
			t.Fatalf("call %d: argument died in a collection forced mid-Execute", inTrace)
		}
		cur := eng.active[len(eng.active)-1]
		held := false
		for _, v := range cur.regs[cur.t.regBase:] {
			held = held || v.O == o
		}
		if !held {
			t.Fatalf("call %d: the active register file does not hold the argument", inTrace)
		}
		inConsts, viaConsts, visits := false, 0, 0
		for _, v := range cur.regs[:cur.t.regBase] {
			inConsts = inConsts || v.O == vm.refConst
		}
		for _, tr := range eng.Traces() {
			for _, c := range tr.Consts {
				if c.O == vm.refConst {
					viaConsts++
				}
			}
		}
		eng.Roots(func(v *heap.Obj) {
			if v == vm.refConst {
				visits++
			}
		})
		if !inConsts || visits != viaConsts {
			t.Fatalf("call %d: constant object in the file's constant area: %v; visited %d times, %d traces hold it as a constant",
				inTrace, inConsts, visits, viaConsts)
		}
		return heap.IntVal(1)
	}

	const n = 3000
	got := vm.run(probeLoop(), n)
	if want := int64(1000*7 + 2000*1 + n); got.I != want {
		t.Fatalf("sum = %d, want %d", got.I, want)
	}
	if eng.Stats().BridgesCompiled == 0 || inBridge < 500 {
		t.Fatalf("bridge transfers not exercised: %d bridges, %d calls right after a transfer",
			eng.Stats().BridgesCompiled, inBridge)
	}
	if len(eng.active) != 0 {
		t.Fatalf("%d register files still active after the run", len(eng.active))
	}
}

// TestCallAOTWindowAliasing: with the poison hook on, a thunk that kept
// its args slice reads poison after the call — the window really is
// scratch — while values copied out during the call are intact, and a
// nested residual call does not disturb the outer window.
func TestCallAOTWindowAliasing(t *testing.T) {
	PoisonScratch = true
	defer func() { PoisonScratch = false }()

	mach := cpu.NewDefault()
	h := heap.New(mach, heap.DefaultConfig())
	rt := aot.NewRuntime(h)
	fn := rt.Register("test.keep", aot.SrcIntrinsic)
	m := NewMachine(rt, FrameworkProfile())

	var kept []heap.Value
	inner := func(args []heap.Value) heap.Value { return heap.IntVal(args[0].I * 10) }
	outer := func(args []heap.Value) heap.Value {
		kept = args
		r := m.CallAOT(fn, inner, Concrete(args[1]))
		if args[0].I != 1 || args[1].I != 2 || args[2].I != 3 {
			t.Fatalf("nested call disturbed the outer window: %v", args)
		}
		return heap.IntVal(args[0].I + r.V.I)
	}
	res := m.CallAOT(fn, outer, Concrete(heap.IntVal(1)), Concrete(heap.IntVal(2)), Concrete(heap.IntVal(3)))
	if res.V.I != 21 {
		t.Fatalf("result = %d, want 21", res.V.I)
	}
	for i, v := range kept {
		if v.Kind != heap.KindRef || v.O != nil {
			t.Fatalf("kept args[%d] = %v after the call: not poisoned", i, v)
		}
	}
}
