package difftest

import (
	"testing"

	"metajit/internal/harness"
	"metajit/internal/mtjit"
	"metajit/internal/pylang"
)

// deoptSrc is a pylang loop whose trace carries the full guard variety:
// class guards (type dispatch), true/false guards (the flipping branch),
// overflow guards (int arithmetic), and guard_not_invalidated (the
// stable global s read in the loop).
const deoptSrc = `
s = 3

class C:
    def __init__(self, a):
        self.a = a
    def step(self, d):
        self.a = self.a + d
        return self.a

def main():
    ob = C(1)
    xs = [1, 2, 3]
    acc = 0
    i = 0
    while i < 60:
        if (i % 3) < 1:
            acc = acc + ob.step(i) + s
        else:
            acc = acc - xs[i % 3]
        xs[i % 3] = acc % 7
        acc = acc + i * 3
        i = i + 1
    print(acc)
    return acc
`

// forceTrace and forceTier install a deoptimization-testing hook
// (mtjit.Engine.ForceGuardFail, ForceTierGuardFail) through the harness's
// Guest seam. The tier hook sees baseline and method guards alike and
// tells them apart by the code's Tier.
func forceTrace(f func(*mtjit.Trace, *mtjit.Op) bool) func(*pylang.VM) {
	return func(vm *pylang.VM) { vm.Eng.ForceGuardFail = f }
}

func forceTier(f func(*mtjit.TierCode, uint64) bool) func(*pylang.VM) {
	return func(vm *pylang.VM) { vm.Eng.ForceTierGuardFail = f }
}

// TestTierDeoptRoundTrip is the lower-tier analog of TestDeoptRoundTrip,
// one row per tier: force a failure at every guard the tier's code
// executes, one guard per run, and demand the fallback interpreter
// reproduces the pure interpreter's result, output, and heap exactly.
// Tracing is kept out of reach so every deopt exits the tier's code, not
// a trace, and in the method row baseline code too.
func TestTierDeoptRoundTrip(t *testing.T) {
	for _, row := range []struct {
		tier   mtjit.Tier
		cell   Cell
		deopts func(mtjit.EngineStats) uint64
	}{
		{mtjit.BaselineTier,
			Cell{VM: harness.VMPyPyTiered, Opt: harness.Options{
				BaselineThreshold: 2, Threshold: unreachable}},
			func(s mtjit.EngineStats) uint64 { return s.BaselineDeopts }},
		{mtjit.MethodTier,
			Cell{VM: harness.VMPyPyAmalg, Opt: harness.Options{
				BaselineThreshold: unreachable, Threshold: unreachable, MethodThreshold: 2}},
			func(s mtjit.EngineStats) uint64 { return s.MethodDeopts }},
	} {
		t.Run(row.tier.String(), func(t *testing.T) {
			ref, err := RunCell(deoptSrc, false, interp)
			if err != nil {
				t.Fatal(err)
			}

			// Discovery run: collect every (code, guard) pair the tier's
			// code executes. Guard IDs are only unique within one
			// TierCode, so the pair is the key.
			type guardKey struct {
				code uint32
				id   uint64
			}
			var order []guardKey
			seen := map[guardKey]bool{}
			discover := row.cell
			discover.Name = row.tier.String() + "-discover"
			discover.Opt.Guest = forceTier(func(c *mtjit.TierCode, id uint64) bool {
				if c.Tier != row.tier {
					t.Errorf("guard in %s code, want %s", c.Tier, row.tier)
				}
				k := guardKey{code: c.ID, id: id}
				if !seen[k] {
					seen[k] = true
					order = append(order, k)
				}
				return false
			})
			if _, err := RunCell(deoptSrc, false, discover); err != nil {
				t.Fatal(err)
			}
			if len(order) < 5 {
				t.Fatalf("only %d %s guards executed; the loop did not run in the tier's code as intended", len(order), row.tier)
			}

			for _, gk := range order {
				cell := row.cell
				cell.Name = row.tier.String() + "-forced"
				cell.Opt.Guest = forceTier(func(c *mtjit.TierCode, id uint64) bool {
					return c.ID == gk.code && id == gk.id
				})
				out, err := RunCell(deoptSrc, false, cell)
				if err != nil {
					t.Fatalf("%s guard %d/%d: %v", row.tier, gk.code, gk.id, err)
				}
				if out.Checksum != ref.Checksum || out.Heap != ref.Heap ||
					out.Output != ref.Output || out.Err != ref.Err {
					t.Errorf("%s guard %d/%d diverged:\n  interp: %s\n  forced: %s",
						row.tier, gk.code, gk.id, ref, out)
				}
				if row.deopts(out.Stats) == 0 {
					t.Errorf("%s guard %d/%d: no deopt recorded", row.tier, gk.code, gk.id)
				}
			}
		})
	}
}

// TestDeoptRoundTrip forces a failure at every guard the compiled code
// executes, one guard per run, under both exit strategies: blackhole
// deoptimization (bridge threshold too high to ever compile one) and
// bridge compilation (threshold 1, so the second failure runs the
// bridge). Every run must reproduce the pure interpreter's result,
// output, and heap — the restored interpreter state after each deopt is
// exactly what the interpreter would have computed itself.
func TestDeoptRoundTrip(t *testing.T) { deoptRoundTrip(t) }

func deoptRoundTrip(t *testing.T) {
	ref, err := RunCell(deoptSrc, false, interp)
	if err != nil {
		t.Fatal(err)
	}

	// Discovery run: collect every guard the compiled code executes.
	var order []uint32
	seen := map[uint32]bool{}
	discover := Cell{Name: "discover", VM: harness.VMPyPyJIT, Opt: harness.Options{
		Threshold: 2, BridgeThreshold: unreachable,
		Guest: forceTrace(func(tr *mtjit.Trace, op *mtjit.Op) bool {
			if !seen[op.GuardID] {
				seen[op.GuardID] = true
				order = append(order, op.GuardID)
			}
			return false
		}),
	}}
	if _, err := RunCell(deoptSrc, false, discover); err != nil {
		t.Fatal(err)
	}
	if len(order) < 5 {
		t.Fatalf("only %d guards executed; the loop did not trace as intended", len(order))
	}

	for _, variant := range []struct {
		name            string
		bridgeThreshold int
	}{
		{"blackhole", unreachable},
		{"bridge", 1},
	} {
		for _, gid := range order {
			gid := gid
			cell := Cell{Name: variant.name, VM: harness.VMPyPyJIT, Opt: harness.Options{
				Threshold: 2, BridgeThreshold: variant.bridgeThreshold,
				Guest: forceTrace(func(tr *mtjit.Trace, op *mtjit.Op) bool {
					return op.GuardID == gid
				}),
			}}
			out, err := RunCell(deoptSrc, false, cell)
			if err != nil {
				t.Fatalf("%s guard %d: %v", variant.name, gid, err)
			}
			if out.Checksum != ref.Checksum || out.Heap != ref.Heap ||
				out.Output != ref.Output || out.Err != ref.Err {
				t.Errorf("%s guard %d diverged:\n  interp: %s\n  forced: %s",
					variant.name, gid, ref, out)
			}
			if out.Stats.GuardFailures == 0 {
				t.Errorf("%s guard %d: no guard failure recorded", variant.name, gid)
			}
		}
	}
}

// TestScratchPoisoned is the aliasing check on the run-owned buffers
// (DESIGN.md, "Host memory discipline"): with mtjit.PoisonScratch on,
// every residual-call argument window is scribbled the moment its thunk
// returns and the ExitState buffers the moment the next Execute begins,
// so a thunk or driver that kept one reads references to no object. The
// full configuration matrix over both corpora and the deopt round trip
// must come out exactly as they do without the hook.
func TestScratchPoisoned(t *testing.T) {
	mtjit.PoisonScratch = true
	defer func() { mtjit.PoisonScratch = false }()

	npy, nsk := 80, 30
	if testing.Short() {
		npy, nsk = 12, 6
	}
	for i := 0; i < npy; i++ {
		src := GenPylang(seedBytes(uint64(i)))
		if _, err := RunMatrix(src, false); err != nil {
			t.Fatalf("pylang seed %d: %v\nprogram:\n%s", i, err, src)
		}
	}
	for i := 0; i < nsk; i++ {
		src := GenSklang(seedBytes(uint64(i) | 1<<32))
		if _, err := RunMatrix(src, true); err != nil {
			t.Fatalf("sklang seed %d: %v\nprogram:\n%s", i, err, src)
		}
	}
	deoptRoundTrip(t)
}
