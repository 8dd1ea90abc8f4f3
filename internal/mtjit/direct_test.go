package mtjit

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"metajit/internal/aot"
	"metajit/internal/cpu"
	"metajit/internal/heap"
	"metajit/internal/isa"
)

// TestDivisorMatchesModulo: the reciprocal reduction behind tableAddr is
// x % d exactly, for every footprint a machine is built with (the shipped
// profiles and the tierTable rows), at the edges and on a million random
// inputs each, and on random divisors up to 2^64-1.
func TestDivisorMatchesModulo(t *testing.T) {
	var ds []uint64
	for _, p := range []*CostProfile{ReferenceProfile(), FrameworkProfile(), CustomVMProfile()} {
		ds = append(ds, p.Footprint)
	}
	for i := range tierTable {
		ds = append(ds, tierTable[i].footprint)
	}
	rng := rand.New(rand.NewSource(5))
	shipped := len(ds)
	ds = append(ds, 1, 2, 3, 7, 1<<63, 1<<63+1, math.MaxUint64)
	for i := 0; i < 64; i++ {
		ds = append(ds, rng.Uint64()>>uint(rng.Intn(64))|1)
	}
	for i, d := range ds {
		v := newDivisor(d)
		xs := []uint64{0, 1, d - 1, d, d + 1, 2*d - 1, 2 * d, math.MaxUint64 - 1, math.MaxUint64}
		n := 1_000_000
		if i >= shipped {
			n = 10_000
		}
		for j := 0; j < n; j++ {
			xs = append(xs, rng.Uint64())
		}
		for _, x := range xs {
			if got, want := v.mod(x), x%d; got != want {
				t.Fatalf("%d mod %d = %d, want %d", x, d, got, want)
			}
		}
	}
}

// TestDirectDispatchRetiresItsProfile: a dispatch and a primitive retire
// exactly their profile's counts, also for a profile wider than the
// buffers a machine carries in itself.
func TestDirectDispatchRetiresItsProfile(t *testing.T) {
	wide := FrameworkProfile()
	wide.DispatchLoads, wide.DispatchXtraBr, wide.PrimLoads = 11, 3, 9
	for _, p := range []*CostProfile{ReferenceProfile(), FrameworkProfile(), CustomVMProfile(), wide} {
		mach := cpu.NewDefault()
		m := NewMachine(aot.NewRuntime(heap.New(mach, heap.DefaultConfig())), p)
		before := mach.Total()
		m.Dispatch(isa.RegionVMText+0x40, isa.RegionVMText+0x1000)
		m.IntAdd(Concrete(heap.IntVal(1)), Concrete(heap.IntVal(2)))
		got := mach.Total()
		loads := uint64(p.DispatchLoads + p.PrimLoads)
		alu := uint64(p.DispatchALU + p.PrimALU)
		if got.Loads-before.Loads != loads || got.ClassCounts[isa.ALU]-before.ClassCounts[isa.ALU] != alu ||
			got.CondBr-before.CondBr != uint64(p.DispatchXtraBr) || got.IndBr-before.IndBr != 1 {
			t.Errorf("%s: retired %d loads, %d ALU, %d branches, %d indirect; want %d, %d, %d, 1", p.Name,
				got.Loads-before.Loads, got.ClassCounts[isa.ALU]-before.ClassCounts[isa.ALU],
				got.CondBr-before.CondBr, got.IndBr-before.IndBr, loads, alu, p.DispatchXtraBr)
		}
	}
}

// TestTVIsFourWords: a traced value stays within the four words the Go
// compiler handles as scalars, which is what makes a guest handler's
// direct calls on the Machine cheap (a float keeps its bits in
// heap.Value.I for it).
func TestTVIsFourWords(t *testing.T) {
	if n, max := unsafe.Sizeof(TV{}), 4*unsafe.Sizeof(uintptr(0)); n > max {
		t.Errorf("TV is %d bytes, over the %d the compiler keeps in registers", n, max)
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1.5, -2.25e300, math.Inf(-1), math.SmallestNonzeroFloat64} {
		v := heap.FloatVal(f)
		if v.Kind != heap.KindFloat || math.Float64bits(v.F()) != math.Float64bits(f) {
			t.Errorf("FloatVal(%g).F() = %g", f, v.F())
		}
		if v.Truthy() != (f != 0) {
			t.Errorf("FloatVal(%g).Truthy() = %v", f, v.Truthy())
		}
	}
	if !heap.FloatVal(0).Eq(heap.FloatVal(math.Copysign(0, -1))) || heap.FloatVal(math.NaN()).Eq(heap.FloatVal(math.NaN())) {
		t.Error("float equality is not IEEE equality")
	}
}

// TestMachineHooksPrice: each hook prices the machine's plain work on
// its own DirectMachine and clearing it returns to the interpreter's;
// recording while resident is refused.
func TestMachineHooksPrice(t *testing.T) {
	rt := aot.NewRuntime(heap.New(cpu.NewDefault(), heap.DefaultConfig()))
	e := NewEngine(rt, FrameworkProfile())
	m := NewMachine(rt, FrameworkProfile())
	res, rec := NewResidency(e, BaselineTier), newRecorder(e)
	for _, c := range []struct {
		name string
		set  func()
		want *DirectMachine
	}{
		{"resident", func() { m.Reside(res) }, res.d},
		{"plain after residency", func() { m.Reside(nil) }, m.plain},
		{"recording", func() { m.Record(rec) }, rec.d},
		{"plain after recording", func() { m.Record(nil) }, m.plain},
	} {
		c.set()
		if m.d != c.want {
			t.Errorf("%s: priced on %s", c.name, m.d.P.Name)
		}
	}
	m.Reside(res)
	defer func() {
		if recover() == nil {
			t.Error("recording while resident was not refused")
		}
	}()
	m.Record(rec)
}
