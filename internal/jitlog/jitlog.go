// Package jitlog is the analog of the PyPy Log facility (Section III):
// for every compiled trace and bridge it reports the JIT IR nodes, the
// lowered assembly footprint and execution counts, supporting the JIT-IR
// level studies (Figures 6-9). Like RPython's log, which the JIT writes
// from its own structures, it keeps no copy: its functions read the
// engine's record of compiled code (mtjit.Engine.Traces, TierCodes).
package jitlog

import (
	"fmt"
	"slices"
	"strings"

	"metajit/internal/mtjit"
)

// Stats is what Figures 6-9 need from a finished run's traces, as plain
// numbers: a run keeps this and lets the engine go. Both arrays are
// indexed by opcode and count OpLabel like any other node; the figures
// that exclude labels (6, 7, 9 and the hot fraction) skip that one index.
type Stats struct {
	// Compiled counts the IR nodes of each type across all traces.
	Compiled [mtjit.NumOpcodes]uint64
	// Dynamic counts how often nodes of each type executed.
	Dynamic [mtjit.NumOpcodes]uint64
	// Hot95 is the fraction of compiled non-label nodes that account for
	// 95% of their dynamic executions (Figure 6b).
	Hot95 float64
}

// StatsOf reduces the engine's traces in one walk over Traces x Ops. A
// node's execution count is the trace's entry count minus the failures
// of the guards before it — Trace.OpExecs, derived in place so the walk
// allocates one slice per engine, not one per trace.
func StatsOf(e *mtjit.Engine) Stats {
	var s Stats
	nodes := 0
	for _, t := range e.Traces() {
		nodes += len(t.Ops)
	}
	execs := make([]uint64, 0, nodes)
	for _, t := range e.Traces() {
		n := t.ExecCount
		for i := range t.Ops {
			op := &t.Ops[i]
			s.Compiled[op.Opc]++
			s.Dynamic[op.Opc] += n
			if op.Opc != mtjit.OpLabel {
				execs = append(execs, n)
			}
			if op.Opc.IsGuard() {
				n -= uint64(op.Fails)
			}
		}
	}
	s.Hot95 = hotFraction(execs, 0.95)
	return s
}

// hotFraction returns the fraction of nodes, hottest first, whose
// execution counts reach the given share of the total; it sorts execs.
func hotFraction(execs []uint64, share float64) float64 {
	var total uint64
	for _, n := range execs {
		total += n
	}
	if total == 0 {
		return 0
	}
	slices.Sort(execs)
	target := uint64(float64(total) * share)
	var acc uint64
	for i := len(execs) - 1; i >= 0; i-- {
		acc += execs[i]
		if acc >= target {
			return float64(len(execs)-i) / float64(len(execs))
		}
	}
	return 1
}

// CompiledNodes returns the number of IR nodes compiled, labels excluded
// (Figure 6a's metric).
func (s *Stats) CompiledNodes() uint64 {
	return sumExceptLabel(&s.Compiled)
}

// DynamicNodes returns total IR-node executions, labels excluded
// (Figure 6c's numerator).
func (s *Stats) DynamicNodes() uint64 {
	return sumExceptLabel(&s.Dynamic)
}

func sumExceptLabel(a *[mtjit.NumOpcodes]uint64) uint64 {
	var n uint64
	for opc, c := range a {
		if mtjit.Opcode(opc) != mtjit.OpLabel {
			n += c
		}
	}
	return n
}

// Categories returns the dynamic IR-node category mix (Figure 7) as
// fractions summing to 1, all zero if nothing executed.
func (s *Stats) Categories() [mtjit.NumCategories]float64 {
	var counts [mtjit.NumCategories]uint64
	for opc, n := range s.Dynamic {
		if mtjit.Opcode(opc) != mtjit.OpLabel {
			counts[mtjit.Opcode(opc).Cat()] += n
		}
	}
	var out [mtjit.NumCategories]float64
	if total := s.DynamicNodes(); total != 0 {
		for c, n := range counts {
			out[c] = float64(n) / float64(total)
		}
	}
	return out
}

// Dump renders the engine's lower-tier code, in install order across
// tiers, then its traces, in PyPy-log style for debugging; every record
// leads with its tier tag.
func Dump(e *mtjit.Engine) string {
	var sb strings.Builder
	e.TierCodes(func(c *mtjit.TierCode) {
		status := ""
		if c.Invalidated {
			status = " (invalidated)"
		}
		fmt.Fprintf(&sb, "# tier%d %s %d (code %d pc %d-%d) entered %d times, %d deopts, %d ops, %d asm bytes%s\n",
			c.Tier+1, c.Tier, c.ID, c.CodeID, c.Start, c.End, c.EnterCount, c.DeoptCount, len(c.Ops), c.AsmLen*4, status)
	})
	for _, t := range e.Traces() {
		fmt.Fprintf(&sb, "# tier2 %s %d (code %d pc %d) executed %d times, %d ops, %d asm bytes\n",
			t.Kind(), t.ID, t.Key.CodeID, t.Key.PC, t.ExecCount, len(t.Ops), t.AsmLen*4)
		for i, n := range t.OpExecs() {
			fmt.Fprintf(&sb, "  [%6d] %s\n", n, t.Ops[i].String())
		}
	}
	return sb.String()
}
