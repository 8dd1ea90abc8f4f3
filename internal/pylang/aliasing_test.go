package pylang

import (
	"testing"

	"metajit/internal/cpu"
	"metajit/internal/heap"
	"metajit/internal/mtjit"
)

// multiFrameDeoptSrc deoptimizes inside an inlined call (the guard on d's
// parity flips), so exits carry two frames.
const multiFrameDeoptSrc = `
def pick(d, k):
    if d % k == 0:
        return d * 3
    return d + 1

def main():
    total = 0
    for i in range(400):
        total = (total + pick(i, 7)) % 999983
    return total
`

// TestExitStateAliasing runs programs whose trace exits chain — a
// call_assembler exit (exit.Enter set) followed at once by the next
// Execute, guard exits that start bridge recordings, exits that rebuild
// two frames — with the poison hook on, so every Execute scribbles the
// shared ExitState buffers before refilling them. At every guard of every
// later Execute the interpreter frames must be free of poison (they were
// copied out of the buffers, not built over them), and the run must end
// with the interpreter's result.
func TestExitStateAliasing(t *testing.T) {
	mtjit.PoisonScratch = true
	defer func() { mtjit.PoisonScratch = false }()

	for _, tc := range []struct {
		name, src              string
		callAssembler, bridges bool
	}{
		{"call_assembler", moreDifferential["called_loop_call_assembler"], true, false},
		{"bridge", moreDifferential["nested_loop_bridge"], false, true},
		{"two_frames", multiFrameDeoptSrc, false, true},
	} {
		want, _ := interp(t, tc.src)

		vm := New(cpu.NewDefault(), Config{Engine: &mtjit.Config{Threshold: 13, BridgeThreshold: 7}})
		if err := vm.LoadModule(tc.name, tc.src); err != nil {
			t.Fatal(err)
		}
		checks := 0
		vm.Eng.ForceGuardFail = func(*mtjit.Trace, *mtjit.Op) bool {
			checks++
			for fi, f := range vm.frames {
				for _, tvs := range [][]mtjit.TV{f.Locals, f.Stack} {
					for i, tv := range tvs {
						if tv.V.Kind == heap.KindRef && tv.V.O == nil {
							t.Fatalf("%s: frame %d slot %d holds poison: the frame aliases an exit buffer",
								tc.name, fi, i)
						}
					}
				}
			}
			return false
		}
		got := vm.RunFunction("main")
		if !got.Eq(want) {
			t.Errorf("%s: result %v, interpreter says %v", tc.name, got, want)
		}

		st := vm.Eng.Stats()
		if checks == 0 || st.GuardFailures == 0 {
			t.Errorf("%s: no compiled code ran (%d checks, %d guard failures)", tc.name, checks, st.GuardFailures)
		}
		if tc.bridges && st.BridgesCompiled == 0 {
			t.Errorf("%s: no StartBridgeGuard exit was taken", tc.name)
		}
		if tc.callAssembler {
			var execs uint64
			for _, tr := range vm.Eng.Traces() {
				for i, n := range tr.OpExecs() {
					if tr.Ops[i].Opc == mtjit.OpCallAssembler {
						execs += n
					}
				}
			}
			if execs == 0 {
				t.Errorf("%s: no call_assembler exit was taken", tc.name)
			}
		}
	}
}
