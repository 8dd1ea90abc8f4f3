//go:build !race

package mtjit

import (
	"testing"

	"metajit/internal/aot"
	"metajit/internal/cpu"
	"metajit/internal/heap"
	"metajit/internal/isa"
	"metajit/internal/pintool"
)

// TestCallAOTDoesNotAllocate: a residual call from the plain interpreter
// marshals its arguments on the machine's value stack, and the variadic
// argument slice stays on the caller's stack.
func TestCallAOTDoesNotAllocate(t *testing.T) {
	mach := cpu.NewDefault()
	rt := aot.NewRuntime(heap.New(mach, heap.DefaultConfig()))
	fn := rt.Register("test.sum", aot.SrcIntrinsic)
	m := NewMachine(rt, FrameworkProfile())
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
		total += m.CallAOT(fn, sum, a).V.I
		total += m.CallAOT(fn, sum, a, b).V.I
		total += m.CallAOT(fn, sum, a, b, c).V.I
	})
	if allocs != 0 {
		t.Errorf("CallAOT with 0-3 args: %v host allocations per round, want 0", allocs)
	}
	if total != 201*(0+1+3+6) {
		t.Errorf("sum of results = %d", total)
	}
}

// TestDirectDispatchDoesNotAllocate: the plain interpreter's dispatch and
// a primitive compute their table-load addresses and extra branches into
// the machine's own buffers and retire them through one fused cpu.Machine
// call each, with a dispatch observer attached.
func TestDirectDispatchDoesNotAllocate(t *testing.T) {
	mach := cpu.NewDefault()
	pintool.NewWorkMeter(mach, 0)
	rt := aot.NewRuntime(heap.New(mach, heap.DefaultConfig()))
	for _, p := range []*CostProfile{ReferenceProfile(), FrameworkProfile(), CustomVMProfile()} {
		m := NewMachine(rt, p)
		a, b := Concrete(heap.IntVal(3)), Concrete(heap.IntVal(4))
		site, sum := uint64(0), int64(0)
		allocs := testing.AllocsPerRun(200, func() {
			site += 64
			m.Dispatch(isa.RegionVMText+site%4096, isa.RegionVMText+0x1000+site%640)
			sum += m.IntAdd(a, b).V.I
		})
		if allocs != 0 {
			t.Errorf("%s: dispatch + primitive: %v host allocations per round, want 0", p.Name, allocs)
		}
		if sum != 201*7 {
			t.Errorf("%s: sum of results = %d", p.Name, sum)
		}
	}
}

// lopsidedLoop is branchyLoop with the arms of its branch padded to
// `other` additions (i%3 != 0) and `third` additions (i%3 == 0): the loop
// trace records one arm and the bridge the other, so their register files
// differ in size by the difference.
// slots: 0=n 1=s 2=i 3=tmp 4=tmp2
func lopsidedLoop(id uint32, other, third int) *miniCode {
	arm := func(first int64, n int) []miniOp {
		ops := []miniOp{{kind: "addk", a: 1, b: 1, k: first}}
		for len(ops) < n {
			ops = append(ops, miniOp{kind: "addk", a: 1, b: 1, k: 0})
		}
		return ops
	}
	otherAt := 8 + third
	join := otherAt + other
	ops := []miniOp{
		{kind: "loadk", a: 1, k: 0},       // 0
		{kind: "loadk", a: 2, k: 0},       // 1
		{kind: "lt", a: 3, b: 2, c: 0},    // 2: header
		{kind: "jmpif", a: 3, b: 5},       // 3
		{kind: "jmp", a: join + 2},        // 4: exit
		{kind: "mod", a: 4, b: 2, k: 3},   // 5: tmp2 = i % 3
		{kind: "jmpif", a: 4, b: otherAt}, // 6
	}
	ops = append(ops, arm(7, third)...) // 7: s += 7, padded
	ops = append(ops, miniOp{kind: "jmp", a: join})
	ops = append(ops, arm(1, other)...) // otherAt: s += 1, padded
	ops = append(ops,
		miniOp{kind: "addk", a: 2, b: 2, k: 1}, // join: i += 1
		miniOp{kind: "jmp", a: 2},
		miniOp{kind: "halt", a: 1})
	return &miniCode{id: id, nRegs: 5, ops: ops, headers: map[int]bool{2: true}}
}

// TestExecuteDoesNotAllocate: entering a compiled loop, running it to the
// guard that ends it, deoptimizing and handing the frames back costs no
// host allocation once the engine's buffers have grown — with and without
// a bridge transfer on the way, and with the bridge's register file
// smaller and larger than the loop's (a transfer in either direction must
// find a pooled file that fits and leave the other pooled).
func TestExecuteDoesNotAllocate(t *testing.T) {
	bridgeSmaller, bridgeLarger := false, false
	for _, code := range []*miniCode{sumLoop(), branchyLoop(), lopsidedLoop(5, 8, 1), lopsidedLoop(6, 1, 8)} {
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
		if code.id == 1 {
			continue
		}
		var bridge *Trace
		for _, b := range vm.eng.Traces() {
			if b.Bridge && b.ExecCount > 100 {
				bridge = b
			}
		}
		if bridge == nil {
			t.Fatalf("code %d compiled no bridge that ran: the transfer path was not measured", code.id)
		}
		loopFile, bridgeFile := tr.regBase+tr.NumRegs, bridge.regBase+bridge.NumRegs
		bridgeSmaller = bridgeSmaller || bridgeFile < loopFile
		bridgeLarger = bridgeLarger || bridgeFile > loopFile
	}
	if !bridgeSmaller || !bridgeLarger {
		t.Errorf("bridge register file smaller than its loop's: %v, larger: %v; both orders must be measured",
			bridgeSmaller, bridgeLarger)
	}
}
