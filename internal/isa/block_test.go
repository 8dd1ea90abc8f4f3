package isa

import "testing"

func TestNewBlockDropsZeroCounts(t *testing.T) {
	b := NewBlock(CC(ALU, 3), CC(Load, 0), CC(Store, 2))
	if len(b.Mix) != 2 {
		t.Fatalf("Mix has %d entries, want 2 (zero counts dropped)", len(b.Mix))
	}
	if b.Total != 5 {
		t.Fatalf("Total = %d, want 5", b.Total)
	}
}

func TestNewBlockAllowsJump(t *testing.T) {
	b := NewBlock(CC(ALU, 1), CC(Jump, 2))
	if b.Total != 3 {
		t.Fatalf("Total = %d, want 3", b.Total)
	}
}

func TestNewBlockRejectsPredictedClasses(t *testing.T) {
	for _, c := range []Class{Branch, IndirectJump, Call, IndirectCall, Ret} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBlock accepted predicted class %v", c)
				}
			}()
			NewBlock(CC(c, 1))
		}()
	}
}
