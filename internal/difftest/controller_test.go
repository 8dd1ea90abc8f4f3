package difftest

import (
	"reflect"
	"sync"
	"testing"

	"metajit/internal/bench"
	"metajit/internal/harness"
	"metajit/internal/pylang"
)

// adaptiveCell is the adaptive-hot matrix cell, looked up by name so the
// determinism test always exercises exactly the advertised configuration.
func adaptiveCell(t *testing.T) Cell {
	t.Helper()
	for _, c := range Matrix() {
		if c.Name == "adaptive-hot" {
			return c
		}
	}
	t.Fatal("matrix has no adaptive-hot cell")
	return Cell{}
}

// TestControllerDeterministic pins the tier controller's determinism
// contract: adaptive promotion decisions are a pure function of
// per-engine observed event streams, so repeated runs — and runs
// scheduled on worker pools of different widths — must be bit-identical.
// Record/replay bit-exactness for the adaptive kinds is covered
// separately by TestRecordReplayEquivalence.
func TestControllerDeterministic(t *testing.T) {
	// Same source, same config, fresh VM each time: every observable —
	// including the engine stat counters the controller feeds on — must
	// repeat exactly.
	cfg := adaptiveCell(t)
	src := GenPylang(seedBytes(7))
	a, err := RunCell(src, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCell(src, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum != b.Checksum || a.Heap != b.Heap || a.Output != b.Output || a.Err != b.Err {
		t.Errorf("adaptive rerun diverged:\n  first:  %s\n  second: %s", a, b)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Errorf("adaptive rerun produced different engine stats:\n  first:  %+v\n  second: %+v",
			a.Stats, b.Stats)
	}

	// Worker-pool width must not leak into results: the cells run one
	// after another and then on four concurrent goroutines, as -j1 and
	// -j4 runners schedule them, and must simulate the same runs,
	// every promotion decision included (cells share no state, and the
	// controller reads only its own engine's history).
	short := map[string]bool{"telco": true, "nbody": true, "richards": true}
	type cell struct {
		p    *bench.Program
		kind harness.VMKind
	}
	var cells []cell
	for _, p := range bench.All() {
		if testing.Short() && !short[p.Name] {
			continue
		}
		for _, kind := range []harness.VMKind{harness.VMPyPyAmalg, harness.VMPyPyAdaptive} {
			cells = append(cells, cell{&p, kind})
		}
	}
	type outcome struct {
		res *harness.Result
		vm  *pylang.VM
		err error
	}
	run := func(c cell) (o outcome) {
		o.res, o.err = harness.Run(c.p, c.kind, harness.Options{Guest: func(vm *pylang.VM) { o.vm = vm }})
		return o
	}
	seq, par := make([]outcome, len(cells)), make([]outcome, len(cells))
	for i, c := range cells {
		seq[i] = run(c)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				par[i] = run(cells[i])
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, c := range cells {
		name := c.p.Name + "/" + string(c.kind)
		rs, rp := seq[i], par[i]
		if rs.err != nil || rp.err != nil {
			t.Fatalf("%s: sequential %v, concurrent %v", name, rs.err, rp.err)
		}
		if rs.res.Checksum != rp.res.Checksum || rs.res.HeapChecksum != rp.res.HeapChecksum {
			t.Errorf("%s: checksum differs between sequential and concurrent runs (%d/%#x vs %d/%#x)",
				name, rs.res.Checksum, rs.res.HeapChecksum, rp.res.Checksum, rp.res.HeapChecksum)
		}
		if rs.res.Instrs != rp.res.Instrs || rs.res.Bytecodes != rp.res.Bytecodes || rs.res.Cycles != rp.res.Cycles {
			t.Errorf("%s: counters differ between sequential and concurrent runs (instrs %d vs %d, bytecodes %d vs %d, cycles %v vs %v)",
				name, rs.res.Instrs, rp.res.Instrs, rs.res.Bytecodes, rp.res.Bytecodes, rs.res.Cycles, rp.res.Cycles)
		}
		if !reflect.DeepEqual(rs.res.EngStats, rp.res.EngStats) {
			t.Errorf("%s: engine stats differ between sequential and concurrent runs:\n  seq: %+v\n  par: %+v",
				name, rs.res.EngStats, rp.res.EngStats)
		}
		ls, lp := rs.vm.Eng.ControllerLog(), rp.vm.Eng.ControllerLog()
		if len(ls) == 0 {
			t.Errorf("%s: the controller made no decision", name)
		}
		if !reflect.DeepEqual(ls, lp) {
			t.Errorf("%s: controller logs differ between sequential and concurrent runs:\n  seq: %+v\n  par: %+v", name, ls, lp)
		}
	}
}
