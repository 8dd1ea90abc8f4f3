package mtjit

import (
	"testing"

	"metajit/internal/aot"
	"metajit/internal/cpu"
	"metajit/internal/heap"
)

// probeLoop is branchyLoop with a pair allocated and handed to a residual
// call on every iteration, after the branch joins — so the call runs in
// the loop trace, in the bridge, and after the bridge jumps back.
// slots: 0=n 1=s 2=i 3=tmp 4=tmp2 5=p
func probeLoop() *miniCode {
	return &miniCode{
		id:    4,
		nRegs: 6,
		ops: []miniOp{
			{kind: "loadk", a: 1, k: 0},      // 0
			{kind: "loadk", a: 2, k: 0},      // 1
			{kind: "lt", a: 3, b: 2, c: 0},   // 2: header
			{kind: "jmpif", a: 3, b: 5},      // 3
			{kind: "jmp", a: 15},             // 4: exit
			{kind: "mod", a: 4, b: 2, k: 3},  // 5: tmp2 = i % 3
			{kind: "jmpif", a: 4, b: 9},      // 6
			{kind: "addk", a: 1, b: 1, k: 7}, // 7: s += 7
			{kind: "jmp", a: 10},             // 8
			{kind: "addk", a: 1, b: 1, k: 1}, // 9: s += 1
			{kind: "pair", a: 5, b: 2, c: 1}, // 10: p = pair(i, s)
			{kind: "call", a: 3, b: 5},       // 11: tmp = probe(p)
			{kind: "add", a: 1, b: 1, c: 3},  // 12: s += tmp
			{kind: "addk", a: 2, b: 2, k: 1}, // 13: i += 1
			{kind: "jmp", a: 2},              // 14
			{kind: "halt", a: 1},             // 15
		},
		headers: map[int]bool{2: true},
	}
}

// TestRootsFollowRegisterFileTransfers forces a simulated collection
// inside a residual call made from compiled code and demands that the
// call's argument — an object only the trace registers hold — survives
// it, in the loop, right after a guard transferred into a bridge, and
// after the bridge jumped back: Engine.Roots must scan the register file
// in use, not the one Execute started with.
func TestRootsFollowRegisterFileTransfers(t *testing.T) {
	mach := cpu.NewDefault()
	attachPhaseSwitcher(mach)
	vm := newMiniVM(t, mach)
	eng := vm.eng
	vm.callFn = eng.RT.Register("test.probe", aot.SrcIntrinsic)

	var inTrace, inBridge int
	var lastBridgeExecs uint64
	vm.callThunk = func(args []heap.Value) heap.Value {
		o := args[0].O
		if len(eng.activeRegs) == 0 {
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
		held := false
		for _, v := range eng.activeRegs[len(eng.activeRegs)-1] {
			held = held || v.O == o
		}
		if !held {
			t.Fatalf("call %d: the active register file does not hold the argument", inTrace)
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
	if len(eng.activeRegs) != 0 {
		t.Fatalf("%d register files still active after the run", len(eng.activeRegs))
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
	var m Machine = NewDirectMachine(rt, FrameworkProfile())

	var kept []heap.Value
	inner := func(args []heap.Value) heap.Value { return heap.IntVal(args[0].I * 10) }
	outer := func(args []heap.Value) heap.Value {
		kept = args
		r := m.CallAOT1(fn, inner, Concrete(args[1]))
		if args[0].I != 1 || args[1].I != 2 || args[2].I != 3 {
			t.Fatalf("nested call disturbed the outer window: %v", args)
		}
		return heap.IntVal(args[0].I + r.V.I)
	}
	res := m.CallAOT3(fn, outer, Concrete(heap.IntVal(1)), Concrete(heap.IntVal(2)), Concrete(heap.IntVal(3)))
	if res.V.I != 21 {
		t.Fatalf("result = %d, want 21", res.V.I)
	}
	for i, v := range kept {
		if v.Kind != heap.KindRef || v.O != nil {
			t.Fatalf("kept args[%d] = %v after the call: not poisoned", i, v)
		}
	}
}
