package isa

import "testing"

func TestClassString(t *testing.T) {
	if ALU.String() != "alu" || IndirectJump.String() != "ijump" {
		t.Errorf("class names wrong: %s %s", ALU, IndirectJump)
	}
	if Class(200).String() != "class?" {
		t.Errorf("out-of-range class name")
	}
}

func TestIsBranch(t *testing.T) {
	branchy := []Class{Branch, Jump, IndirectJump, Call, IndirectCall, Ret}
	for _, c := range branchy {
		if !c.IsBranch() {
			t.Errorf("%s should be a branch", c)
		}
	}
	for _, c := range []Class{ALU, Load, Store, Nop, FPU} {
		if c.IsBranch() {
			t.Errorf("%s should not be a branch", c)
		}
	}
}

func TestPCAllocDisjoint(t *testing.T) {
	a := NewPCAlloc(0x1000)
	r1 := a.Take(64)
	r2 := a.Take(64)
	if r1 != 0x1000 || r2 != 0x1040 {
		t.Errorf("ranges overlap or misordered: %#x %#x", r1, r2)
	}
}

func TestNewSiteUnique(t *testing.T) {
	s1 := NewSite()
	s2 := NewSite()
	if s1.PC() == s2.PC() {
		t.Errorf("sites collide at %#x", s1.PC())
	}
	if s1.PC() < RegionVMText {
		t.Errorf("site below VM text region: %#x", s1.PC())
	}
}

func TestRegionsDisjoint(t *testing.T) {
	// The heap, stack, JIT code and VM text regions must be far apart so
	// that the cache model never aliases them accidentally.
	regions := []uint64{RegionVMText, RegionStatic, RegionHeap, RegionJITCode, RegionStack}
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			d := regions[i] - regions[j]
			if regions[j] > regions[i] {
				d = regions[j] - regions[i]
			}
			if d < 1<<22 {
				t.Errorf("regions %#x and %#x too close", regions[i], regions[j])
			}
		}
	}
}
