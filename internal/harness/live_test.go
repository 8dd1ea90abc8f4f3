package harness

import (
	"testing"

	"metajit/internal/bench"
)

// TestLiveTrackerSnapshots runs a JIT benchmark under a tracker with a
// tight publish interval and verifies the run produced evolving
// snapshots with per-phase counters and a trace inventory, then a final
// Done snapshot matching the result totals — and that tracking did not
// change the result (checksum equals an untracked run's).
func TestLiveTrackerSnapshots(t *testing.T) {
	p := bench.ByName("telco")
	lt := NewLiveTracker(64)
	res, err := Run(p, VMPyPyJIT, Options{Live: lt})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(p, VMPyPyJIT, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checksum != plain.Checksum || res.Instrs != plain.Instrs {
		t.Errorf("tracked run diverged: checksum %d/%d, instrs %d/%d",
			res.Checksum, plain.Checksum, res.Instrs, plain.Instrs)
	}

	st := lt.Status()
	if len(st) != 1 {
		t.Fatalf("Status() returned %d runs, want 1", len(st))
	}
	run := st[0]
	if run.Bench != "telco" || run.VM != VMPyPyJIT {
		t.Errorf("run identity = %s/%s", run.Bench, run.VM)
	}
	snap := run.Snap
	if snap == nil || !snap.Done {
		t.Fatalf("final snapshot missing or not done: %+v", snap)
	}
	if snap.Seq < 3 {
		t.Errorf("only %d snapshots published; interval too coarse for a live view", snap.Seq)
	}
	if snap.Instrs != res.Instrs || snap.Bytecodes != res.Bytecodes {
		t.Errorf("final snapshot instrs/bytecodes = %d/%d, result = %d/%d",
			snap.Instrs, snap.Bytecodes, res.Instrs, res.Bytecodes)
	}
	if len(snap.Traces) == 0 {
		t.Error("JIT run published no trace inventory")
	}
	if snap.Code == nil {
		// /vm/traces shows a JIT run without lower tiers as "code": [].
		t.Error("JIT run published a nil lower-tier inventory, want an empty one")
	}
	var work uint64
	for _, ph := range snap.Phases {
		work += ph.Work
	}
	if work != snap.Bytecodes {
		t.Errorf("per-phase work sums to %d, total bytecodes %d", work, snap.Bytecodes)
	}

	// The retained run keeps its last snapshot but must not pin the
	// finished simulation (machine, JIT engine) behind it.
	lt.mu.Lock()
	lr := lt.runs[run.ID]
	lt.mu.Unlock()
	if lr.m != nil || lr.eng != nil {
		t.Errorf("retained run still holds machine=%v engine=%v", lr.m != nil, lr.eng != nil)
	}
	if again, ok := lt.Run(run.ID); !ok {
		t.Error("Run(id) did not find the tracked run")
	} else if again.Snap != snap || !again.Snap.Done {
		t.Error("retained run no longer serves its done snapshot")
	}
	if lt.Active() != 0 {
		t.Errorf("Active() = %d after completion", lt.Active())
	}
}

// TestLiveTrackerNil: a nil tracker must be a no-op for every entry
// point Run uses.
func TestLiveTrackerNil(t *testing.T) {
	var lt *LiveTracker
	lr := lt.begin("x", VMCPython, nil)
	lr.attach()
	lr.setEngine(nil)
	lr.end()
	if lt.Status() != nil || lt.Active() != 0 {
		t.Error("nil tracker reported runs")
	}
}
