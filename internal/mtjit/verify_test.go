package mtjit

import (
	"strings"
	"testing"

	"metajit/internal/cpu"
)

// TestValidateCatchesGuardAndPredecodeDrift: the executor keeps a guard's
// counters on its op and runs a lowered copy of the ops, so Validate must
// notice a GuardID that two ops share, counters that disagree with the
// engine's total, and a predecoded instruction that no longer matches its
// op.
func TestValidateCatchesGuardAndPredecodeDrift(t *testing.T) {
	vm := newMiniVM(t, cpu.NewDefault())
	vm.run(branchyLoop(), 2000)
	e := vm.eng
	if e.Stats().BridgesCompiled == 0 {
		t.Fatal("no bridge compiled")
	}
	if err := e.Validate(); err != nil {
		t.Fatalf("clean engine: %v", err)
	}
	loop := e.Traces()[0]
	var guards []*Op
	for i := range loop.Ops {
		if loop.Ops[i].Opc.IsGuard() {
			guards = append(guards, &loop.Ops[i])
		}
	}
	if len(guards) < 2 {
		t.Fatalf("loop has %d guards, the test needs two", len(guards))
	}

	expect := func(what, want string) {
		t.Helper()
		if err := e.Validate(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", what, err, want)
		}
	}

	id := guards[1].GuardID
	guards[1].GuardID = guards[0].GuardID
	expect("two ops share a GuardID", "guard table")
	guards[1].GuardID = id

	guards[0].Fails++
	expect("guard counter ahead of the engine's total", "GuardFailures")
	guards[0].Fails--

	for i := range loop.Ops {
		if op := &loop.Ops[i]; op.Opc == OpIntLt {
			op.A, op.B = op.B, op.A // still well-formed IR, but not what runs
			expect("op edited after install", "predecoded form")
			op.A, op.B = op.B, op.A
		}
	}
	loop.code[0].pc += 4
	expect("predecoded address moved", "predecoded form")
	loop.code[0].pc -= 4

	if err := e.Validate(); err != nil {
		t.Fatalf("after undoing every edit: %v", err)
	}
}
