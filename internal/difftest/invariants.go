package difftest

import (
	"fmt"

	"metajit/internal/core"
	"metajit/internal/cpu"
	"metajit/internal/isa"
	"metajit/internal/profile"
)

// CheckPhases verifies the cross-layer accounting invariants of a
// finished run: per-phase counters sum to the machine totals, and
// within every phase the event counters are mutually consistent. These
// hold for any workload, so the differential oracle asserts them after
// each execution regardless of the program or VM configuration.
func CheckPhases(mach *cpu.Machine) error {
	var instrs, units uint64
	for p := core.Phase(0); p < core.NumPhases; p++ {
		c := mach.PhaseCounters(p)
		if err := checkCounters(c); err != nil {
			return fmt.Errorf("phase %s: %w", p, err)
		}
		instrs += c.Instrs
		units += cpu.Units(c.Cycles)
	}
	total := mach.Total()
	if instrs != total.Instrs || instrs != mach.TotalInstrs() {
		return fmt.Errorf("phase instruction counts sum to %d, total is %d (running %d)", instrs, total.Instrs, mach.TotalInstrs())
	}
	if units != cpu.Units(total.Cycles) || total.Cycles != mach.TotalCycles() {
		return fmt.Errorf("phase cycle counts sum to %d units, total is %g cycles (running %g)", units, total.Cycles, mach.TotalCycles())
	}
	return nil
}

// CheckProfile verifies the streaming profiler against the machine it
// observed: the annotation stream must be well-formed (balanced spans
// obeying the nesting grammar, monotone state), and the profiler's
// per-phase totals must equal the machine's own phase counters EXACTLY
// — cycles and memory counters by the snapshot construction, and
// instructions as a genuine cross-check of the independently
// accumulated sums. Call after Profiler.Finish, and only for clean runs
// (a guest error unwinds the VM without closing annotation spans).
func CheckProfile(mach *cpu.Machine, p *profile.Profiler) error {
	if err := p.Err(); err != nil {
		return fmt.Errorf("profile stream: %w", err)
	}
	totals := p.PhaseTotals()
	for ph := core.Phase(0); ph < core.NumPhases; ph++ {
		if got, want := totals[ph], mach.PhaseCounters(ph); got != want {
			return fmt.Errorf("profile phase %s totals diverge from machine: instrs %d vs %d, cycles %g vs %g",
				ph, got.Instrs, want.Instrs, got.Cycles, want.Cycles)
		}
	}
	return nil
}

// checkCounters verifies one accounting domain. Loads/Stores count
// events routed through the cache model; bulk Ops(isa.Load, n) emission
// adds to the class counts only, so those relations are inequalities.
// The branch classes are only ever emitted through their dedicated
// stream entry points, so their relations are equalities.
func checkCounters(c cpu.Counters) error {
	var cls uint64
	for _, n := range c.ClassCounts {
		cls += n
	}
	if cls != c.Instrs {
		return fmt.Errorf("class counts sum to %d, Instrs = %d", cls, c.Instrs)
	}
	if c.Instrs > 0 && c.Cycles <= 0 {
		return fmt.Errorf("%d instructions retired in %g cycles", c.Instrs, c.Cycles)
	}
	if c.Loads > c.ClassCounts[isa.Load] {
		return fmt.Errorf("cache-modeled loads %d exceed load class count %d", c.Loads, c.ClassCounts[isa.Load])
	}
	if c.Stores > c.ClassCounts[isa.Store] {
		return fmt.Errorf("cache-modeled stores %d exceed store class count %d", c.Stores, c.ClassCounts[isa.Store])
	}
	if c.CondBr != c.ClassCounts[isa.Branch] {
		return fmt.Errorf("CondBr %d != branch class count %d", c.CondBr, c.ClassCounts[isa.Branch])
	}
	if c.Returns != c.ClassCounts[isa.Ret] {
		return fmt.Errorf("Returns %d != ret class count %d", c.Returns, c.ClassCounts[isa.Ret])
	}
	if ind := c.ClassCounts[isa.IndirectJump] + c.ClassCounts[isa.IndirectCall]; c.IndBr != ind {
		return fmt.Errorf("IndBr %d != indirect class counts %d", c.IndBr, ind)
	}
	if c.CondMiss > c.CondBr {
		return fmt.Errorf("CondMiss %d > CondBr %d", c.CondMiss, c.CondBr)
	}
	if c.IndMiss > c.IndBr {
		return fmt.Errorf("IndMiss %d > IndBr %d", c.IndMiss, c.IndBr)
	}
	if c.RetMiss > c.Returns {
		return fmt.Errorf("RetMiss %d > Returns %d", c.RetMiss, c.Returns)
	}
	if c.L2Miss > c.L1Miss {
		return fmt.Errorf("L2Miss %d > L1Miss %d", c.L2Miss, c.L1Miss)
	}
	if c.L1Miss > c.Loads+c.Stores {
		return fmt.Errorf("L1Miss %d > %d cache-modeled accesses", c.L1Miss, c.Loads+c.Stores)
	}
	return nil
}
