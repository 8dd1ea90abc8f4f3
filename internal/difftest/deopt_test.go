package difftest

import (
	"testing"

	"metajit/internal/mtjit"
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

// TestBaselineDeoptRoundTrip is the tier-1 analog of
// TestDeoptRoundTrip: force a failure at every guard the baseline
// threaded code executes, one guard per run, and demand the fallback
// interpreter reproduces the pure interpreter's result, output, and
// heap exactly. Tracing is kept out of reach so every deopt exits
// baseline code, not a trace.
func TestBaselineDeoptRoundTrip(t *testing.T) {
	ref, err := RunSource(deoptSrc, false, VMConfig{Name: "interp"})
	if err != nil {
		t.Fatal(err)
	}

	// Discovery run: collect every (code, guard) pair baseline code
	// executes. Guard IDs are only unique within one BaselineCode, so
	// the pair is the key.
	type guardKey struct {
		code uint32
		id   uint64
	}
	var order []guardKey
	seen := map[guardKey]bool{}
	discover := VMConfig{
		Name: "tier1-discover", JIT: true, Baseline: true,
		BaselineThreshold: 2, Threshold: 1 << 20,
		ForceBaselineGuardFail: func(bc *mtjit.BaselineCode, id uint64) bool {
			k := guardKey{code: bc.ID, id: id}
			if !seen[k] {
				seen[k] = true
				order = append(order, k)
			}
			return false
		},
	}
	if _, err := RunSource(deoptSrc, false, discover); err != nil {
		t.Fatal(err)
	}
	if len(order) < 5 {
		t.Fatalf("only %d baseline guards executed; the loop did not run in tier-1 code as intended", len(order))
	}

	for _, gk := range order {
		gk := gk
		cfg := VMConfig{
			Name: "tier1-forced", JIT: true, Baseline: true,
			BaselineThreshold: 2, Threshold: 1 << 20,
			ForceBaselineGuardFail: func(bc *mtjit.BaselineCode, id uint64) bool {
				return bc.ID == gk.code && id == gk.id
			},
		}
		out, err := RunSource(deoptSrc, false, cfg)
		if err != nil {
			t.Fatalf("baseline guard %d/%d: %v", gk.code, gk.id, err)
		}
		if out.Result != ref.Result || out.Heap != ref.Heap ||
			out.Output != ref.Output || out.Err != ref.Err {
			t.Errorf("baseline guard %d/%d diverged:\n  interp: %s\n  forced: %s",
				gk.code, gk.id, ref, out)
		}
		if out.Stats.BaselineDeopts == 0 {
			t.Errorf("baseline guard %d/%d: no deopt recorded", gk.code, gk.id)
		}
	}
}

// TestMethodDeoptRoundTrip is the tier-2 method analog of
// TestBaselineDeoptRoundTrip: force a failure at every guard the
// method-compiled code executes, one guard per run, and demand the
// fallback interpreter reproduces the pure interpreter's result,
// output, and heap exactly. Tracing is kept out of reach so every
// deopt exits method code, not a trace.
func TestMethodDeoptRoundTrip(t *testing.T) {
	ref, err := RunSource(deoptSrc, false, VMConfig{Name: "interp"})
	if err != nil {
		t.Fatal(err)
	}

	// Discovery run: collect every (method, guard) pair the method code
	// executes. Guard IDs are only unique within one MethodCode, so the
	// pair is the key.
	type guardKey struct {
		method uint32
		id     uint64
	}
	var order []guardKey
	seen := map[guardKey]bool{}
	discover := VMConfig{
		Name: "method-discover", JIT: true, Method: true,
		MethodThreshold: 2, Threshold: 1 << 20,
		ForceMethodGuardFail: func(mc *mtjit.MethodCode, id uint64) bool {
			k := guardKey{method: mc.ID, id: id}
			if !seen[k] {
				seen[k] = true
				order = append(order, k)
			}
			return false
		},
	}
	if _, err := RunSource(deoptSrc, false, discover); err != nil {
		t.Fatal(err)
	}
	if len(order) < 5 {
		t.Fatalf("only %d method guards executed; the loop did not run in tier-2 method code as intended", len(order))
	}

	for _, gk := range order {
		gk := gk
		cfg := VMConfig{
			Name: "method-forced", JIT: true, Method: true,
			MethodThreshold: 2, Threshold: 1 << 20,
			ForceMethodGuardFail: func(mc *mtjit.MethodCode, id uint64) bool {
				return mc.ID == gk.method && id == gk.id
			},
		}
		out, err := RunSource(deoptSrc, false, cfg)
		if err != nil {
			t.Fatalf("method guard %d/%d: %v", gk.method, gk.id, err)
		}
		if out.Result != ref.Result || out.Heap != ref.Heap ||
			out.Output != ref.Output || out.Err != ref.Err {
			t.Errorf("method guard %d/%d diverged:\n  interp: %s\n  forced: %s",
				gk.method, gk.id, ref, out)
		}
		if out.Stats.MethodDeopts == 0 {
			t.Errorf("method guard %d/%d: no deopt recorded", gk.method, gk.id)
		}
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
	ref, err := RunSource(deoptSrc, false, VMConfig{Name: "interp"})
	if err != nil {
		t.Fatal(err)
	}

	// Discovery run: collect every guard the compiled code executes.
	var order []uint32
	seen := map[uint32]bool{}
	discover := VMConfig{
		Name: "discover", JIT: true, Threshold: 2, BridgeThreshold: 1 << 20,
		ForceGuardFail: func(tr *mtjit.Trace, op *mtjit.Op) bool {
			if !seen[op.GuardID] {
				seen[op.GuardID] = true
				order = append(order, op.GuardID)
			}
			return false
		},
	}
	if _, err := RunSource(deoptSrc, false, discover); err != nil {
		t.Fatal(err)
	}
	if len(order) < 5 {
		t.Fatalf("only %d guards executed; the loop did not trace as intended", len(order))
	}

	for _, variant := range []struct {
		name            string
		bridgeThreshold int
	}{
		{"blackhole", 1 << 20},
		{"bridge", 1},
	} {
		for _, gid := range order {
			gid := gid
			cfg := VMConfig{
				Name: variant.name, JIT: true, Threshold: 2,
				BridgeThreshold: variant.bridgeThreshold,
				ForceGuardFail: func(tr *mtjit.Trace, op *mtjit.Op) bool {
					return op.GuardID == gid
				},
			}
			out, err := RunSource(deoptSrc, false, cfg)
			if err != nil {
				t.Fatalf("%s guard %d: %v", variant.name, gid, err)
			}
			if out.Result != ref.Result || out.Heap != ref.Heap ||
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
