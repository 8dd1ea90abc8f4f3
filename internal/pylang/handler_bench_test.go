package pylang

import (
	"testing"

	"metajit/internal/cpu"
	"metajit/internal/heap"
	"metajit/internal/mtjit"
)

// indexFixture is a VM with a 64-element list and a 64-character string
// as module globals (so the simulated collector keeps them) and a frame
// holding both and an index, the operands of a BCIndex.
type indexFixture struct {
	vm *VM
	f  *Frame
}

const (
	fxList = iota
	fxStr
	fxIdx
)

func newIndexFixture(tb testing.TB, p *mtjit.CostProfile, jit bool) *indexFixture {
	tb.Helper()
	cfg := Config{Profile: p}
	if jit {
		cfg.Engine = &mtjit.Config{}
	}
	vm := New(cpu.NewDefault(), cfg)
	if err := vm.LoadModule("fixture", "def f(x):\n    return x\n"); err != nil {
		tb.Fatal(err)
	}
	m := vm.m
	lst := m.NewArray(vm.ListShape, 0, 64)
	for i := 0; i < 64; i++ {
		m.SetElem(lst, m.Const(heap.IntVal(int64(i))), m.Const(heap.IntVal(int64(3*i+1))))
	}
	str := mtjit.Concrete(heap.RefVal(vm.RT.NewStr([]byte("the quick brown fox jumps over the lazy dog, 0123456789 ABCDEFGH"))))
	vm.globals["L"], vm.globals["S"] = lst.V, str.V
	f := vm.newFrame(vm.codes[0], 3, false)
	f.Locals[fxList], f.Locals[fxStr] = lst, str
	return &indexFixture{vm: vm, f: f}
}

// index runs one list and one string BCIndex at i, which runs from -32 to
// 31 so that normIndex takes both of its branches.
func (x *indexFixture) index(i int) int64 {
	vm, l := x.vm, x.f.Locals
	l[fxIdx] = mtjit.TV{V: heap.IntVal(int64(i%64 - 32)), R: l[fxIdx].R}
	return vm.index(vm.m, l[fxList], l[fxIdx]).V.I + vm.index(vm.m, l[fxStr], l[fxIdx]).V.I
}

// BenchmarkHandlerIndex times pylang's index handler — the type
// dispatch, normIndex's compares, truth tests and add, the element and
// character loads — on a list and a string, on each cost profile. Plain
// is the interpreter's path, where every operation is a direct call on
// the concrete mtjit.Machine; recording runs the same handler with a
// recording hooked on the machine, so each type test and truth test also
// records a guard (the recording restarts every 256 iterations to stay
// below the trace limit).
func BenchmarkHandlerIndex(b *testing.B) {
	for _, p := range []*mtjit.CostProfile{mtjit.ReferenceProfile(), mtjit.FrameworkProfile(), mtjit.CustomVMProfile()} {
		b.Run("plain/"+p.Name, func(b *testing.B) {
			x := newIndexFixture(b, p, false)
			sum := int64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum += x.index(i)
			}
			if sum == 0 {
				b.Fatal("no element read")
			}
		})
	}
	b.Run("recording/framework", func(b *testing.B) {
		x := newIndexFixture(b, mtjit.FrameworkProfile(), true)
		vm := x.vm
		key := mtjit.GreenKey{CodeID: x.f.Code.ID}
		snap := func() []mtjit.FrameSnap { return nil }
		begin := func() {
			vm.tm = vm.Eng.BeginTracing(key, x.f, snap)
			vm.tm.UseUnicodeOps = vm.UnicodeStrings
			vm.m.Record(vm.tm)
		}
		begin()
		sum := int64(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%256 == 255 {
				vm.Eng.AbortTrace(vm.tm, mtjit.AbortForced)
				vm.m.Record(nil)
				begin()
			}
			sum += x.index(i)
		}
		if sum == 0 {
			b.Fatal("no element read")
		}
	})
}
