//go:build !race

package pylang

import (
	"testing"

	"metajit/internal/cpu"
	"metajit/internal/heap"
	"metajit/internal/mtjit"
)

const allocGuardSrc = `
class C:
    def __init__(self, a):
        self.a = a
    def step(self, d):
        return d

def mk():
    return C(1)

def straight(n):
    s = 0
    i = 0
    while i < n:
        s = s + i
        i = i + 1
    return s

def branchy(n):
    s = 0
    i = 0
    while i < n:
        if i % 2 == 0:
            s = s + i
        else:
            s = s - 1
        i = i + 1
    return s
`

func allocGuardVM(t *testing.T) *VM {
	t.Helper()
	vm := New(cpu.NewDefault(), Config{Engine: &mtjit.Config{Threshold: 3, BridgeThreshold: 2}})
	if err := vm.LoadModule("allocs", allocGuardSrc); err != nil {
		t.Fatal(err)
	}
	return vm
}

// TestTraceEntryExitDoesNotAllocate: in steady state a guest call that
// enters a compiled loop from the interpreter, leaves it through a failing
// guard (blackhole deopt, applyExit rebuilding the frame) and is entered
// again by the next call costs no host allocation — nor does the same
// round trip with a bridge transfer inside the loop.
func TestTraceEntryExitDoesNotAllocate(t *testing.T) {
	for _, fn := range []string{"straight", "branchy"} {
		vm := allocGuardVM(t)
		call := func() {
			if got := vm.RunFunction(fn, heap.IntVal(24)); got.Kind != heap.KindInt {
				t.Fatalf("%s returned %v", fn, got)
			}
		}
		for i := 0; i < 40; i++ {
			call() // compile the loop (and the bridge), let the exit guard's own recording abort
		}
		before := vm.Eng.Stats()
		if allocs := testing.AllocsPerRun(100, call); allocs != 0 {
			t.Errorf("%s: %v host allocations per call in steady state, want 0", fn, allocs)
		}
		after := vm.Eng.Stats()
		if after.LoopsCompiled != before.LoopsCompiled || after.BridgesCompiled != before.BridgesCompiled ||
			after.Aborts != before.Aborts {
			t.Errorf("%s: still compiling during the measurement: %+v -> %+v", fn, before, after)
		}
		if after.GuardFailures-before.GuardFailures < 101 {
			t.Errorf("%s: the measured calls did not leave the trace through a guard", fn)
		}
		if fn == "branchy" {
			if after.BridgesCompiled == 0 {
				t.Fatalf("branchy: no bridge compiled")
			}
			var execs uint64
			for _, tr := range vm.Eng.Traces() {
				if tr.Bridge {
					execs += tr.ExecCount
				}
			}
			if execs < 101*12 {
				t.Errorf("branchy: bridges ran %d times; the transfer was not in the measurement", execs)
			}
		}
	}
}

// TestBoundCallDoesNotAllocate: calling a bound method builds self+args on
// the VM's call buffer and takes the callee frame from the pool; a
// constructor call allocates its instance — header and fields in one host
// allocation — and nothing else.
func TestBoundCallDoesNotAllocate(t *testing.T) {
	vm := allocGuardVM(t)
	m := vm.m
	inst := vm.RunFunction("mk")
	cls := vm.classes[inst.O.Shape]
	step, ok := cls.lookupMethod("step")
	if !ok {
		t.Fatal("no method step")
	}
	bound := m.NewObj(vm.BoundShape, 2)
	m.SetField(bound, 0, mtjit.Concrete(inst))
	m.SetField(bound, 1, mtjit.Concrete(heap.RefVal(step)))
	args := []mtjit.TV{mtjit.Concrete(heap.IntVal(7))}

	// A caller frame for the constructor to leave its instance on.
	caller := vm.newFrame(vm.codes[0], 0, false)
	vm.frames = append(vm.frames, caller)
	popCallee := func() {
		f := vm.frames[len(vm.frames)-1]
		vm.frames = vm.frames[:len(vm.frames)-1]
		if f == caller {
			t.Fatal("call pushed no frame")
		}
		vm.releaseFrame(f)
	}

	if allocs := testing.AllocsPerRun(100, func() {
		vm.pushCall(m, bound, args, false)
		if f := vm.frames[len(vm.frames)-1]; f.Locals[0].V.O != inst.O || f.Locals[1].V.I != 7 {
			t.Fatalf("callee locals = %v", f.Locals)
		}
		popCallee()
	}); allocs != 0 {
		t.Errorf("bound-method call: %v host allocations, want 0", allocs)
	}

	class := mtjit.Concrete(heap.RefVal(cls.obj))
	if allocs := testing.AllocsPerRun(100, func() {
		vm.pushCall(m, class, args, false)
		popCallee()
		caller.pop() // the instance
	}); allocs != 1 {
		t.Errorf("constructor call: %v host allocations, want 1 (the instance)", allocs)
	}
}

// TestPlainHandlersDoNotAllocate: the plain interpreter's value handlers
// — indexing a list and a string (type dispatch, bounds normalization,
// element and character loads), storing into a list, integer arithmetic,
// comparison and truth tests — allocate nothing on the host: operands
// and results are values, and every operation is a direct call on the
// VM's one machine.
func TestPlainHandlersDoNotAllocate(t *testing.T) {
	for _, p := range []*mtjit.CostProfile{mtjit.ReferenceProfile(), mtjit.FrameworkProfile(), mtjit.CustomVMProfile()} {
		x := newIndexFixture(t, p, false)
		vm, m := x.vm, x.vm.m
		lst := x.f.Locals[fxList]
		i, sum := 0, int64(0)
		allocs := testing.AllocsPerRun(200, func() {
			sum += x.index(i)
			idx := m.Const(heap.IntVal(int64(i % 64)))
			v := vm.binary(m, BinAdd, vm.index(m, lst, idx), m.Const(heap.IntVal(1)))
			vm.storeIndex(m, lst, idx, v)
			if vm.truthy(m, vm.compare(m, CmpLt, v, idx), 0x40) {
				sum++
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: %v host allocations per round of handlers, want 0", p.Name, allocs)
		}
		if sum == 0 {
			t.Errorf("%s: no element read", p.Name)
		}
	}
}
