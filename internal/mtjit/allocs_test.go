//go:build !race

package mtjit

import (
	"testing"

	"metajit/internal/aot"
	"metajit/internal/cpu"
	"metajit/internal/heap"
)

// TestCallAOTDoesNotAllocate: a residual call from the plain interpreter,
// made through the Machine interface the guests use, marshals its
// arguments on the machine's value stack.
func TestCallAOTDoesNotAllocate(t *testing.T) {
	mach := cpu.NewDefault()
	rt := aot.NewRuntime(heap.New(mach, heap.DefaultConfig()))
	fn := rt.Register("test.sum", aot.SrcIntrinsic)
	var m Machine = NewDirectMachine(rt, FrameworkProfile())
	sum := func(args []heap.Value) heap.Value {
		s := int64(0)
		for _, a := range args {
			s += a.I
		}
		return heap.IntVal(s)
	}
	a, b, c := Concrete(heap.IntVal(1)), Concrete(heap.IntVal(2)), Concrete(heap.IntVal(3))
	total := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		total += m.CallAOT(fn, sum).V.I
		total += m.CallAOT1(fn, sum, a).V.I
		total += m.CallAOT2(fn, sum, a, b).V.I
		total += m.CallAOT3(fn, sum, a, b, c).V.I
	})
	if allocs != 0 {
		t.Errorf("CallAOT with 0-3 args: %v host allocations per round, want 0", allocs)
	}
	if total != 201*(0+1+3+6) {
		t.Errorf("sum of results = %d", total)
	}
}

// TestExecuteDoesNotAllocate: entering a compiled loop, running it to the
// guard that ends it, deoptimizing and handing the frames back costs no
// host allocation once the engine's buffers have grown — with and without
// a bridge transfer on the way.
func TestExecuteDoesNotAllocate(t *testing.T) {
	for _, code := range []*miniCode{sumLoop(), branchyLoop()} {
		mach := cpu.NewDefault()
		vm := newMiniVM(t, mach)
		vm.eng.BridgeThreshold = 3
		vm.run(code, 400)
		tr := vm.eng.LookupTrace(GreenKey{CodeID: code.id, PC: 2})
		if tr == nil {
			t.Fatalf("code %d: no loop trace", code.id)
		}
		f := vm.frame
		enter := func() {
			f.pc = 2
			f.slots[0] = Concrete(heap.IntVal(40)) // n
			f.slots[1] = Concrete(heap.IntVal(0))  // s
			f.slots[2] = Concrete(heap.IntVal(0))  // i
			vm.applyExit(vm.eng.Execute(tr, f))
		}
		for i := 0; i < 10; i++ {
			enter() // grows the buffers; the exit guard's one bridge request goes unanswered
		}
		before := vm.eng.Stats()
		if allocs := testing.AllocsPerRun(100, enter); allocs != 0 {
			t.Errorf("code %d: %v host allocations per Execute+deopt, want 0", code.id, allocs)
		}
		after := vm.eng.Stats()
		if after.GuardFailures-before.GuardFailures < 101 {
			t.Errorf("code %d: the measured runs did not deoptimize", code.id)
		}
		if code.id == 2 && after.BridgesCompiled == 0 {
			t.Errorf("branchy loop compiled no bridge: the transfer path was not measured")
		}
	}
}
