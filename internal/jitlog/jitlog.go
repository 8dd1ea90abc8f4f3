// Package jitlog is the analog of the PyPy Log facility (Section III): it
// records, for every compiled trace and bridge, the JIT IR nodes, the
// lowered assembly footprint, and execution counts, supporting the JIT-IR
// level studies (Figures 6-9).
package jitlog

import (
	"fmt"
	"slices"
	"strings"

	"metajit/internal/mtjit"
)

// Log collects trace and lower-tier compile records from an engine.
type Log struct {
	Traces []*mtjit.Trace
	// Code records lower-tier (baseline and method) compilations in
	// install order, including later-invalidated ones.
	Code []*mtjit.TierCode

	// Lazy ID indexes for the span-label helpers. Traces and Code are
	// append-only, so the indexes extend incrementally. Lower-tier IDs
	// are per tier.
	traceByID    map[uint32]*mtjit.Trace
	codeByID     [mtjit.NumTiers]map[uint32]*mtjit.TierCode
	traceIndexed int
	codeIndexed  int
}

// TraceLabel returns a compact human-readable label for the trace with
// the given ID ("loop3@c2:p14", "bridge7@c2:p9"), or "" when the ID is
// unknown. The format is safe for folded-flamegraph frames: no spaces
// or semicolons.
func (l *Log) TraceLabel(id uint64) string {
	for ; l.traceIndexed < len(l.Traces); l.traceIndexed++ {
		if l.traceByID == nil {
			l.traceByID = map[uint32]*mtjit.Trace{}
		}
		t := l.Traces[l.traceIndexed]
		l.traceByID[t.ID] = t
	}
	t := l.traceByID[uint32(id)]
	if t == nil {
		return ""
	}
	kind := "loop"
	if t.Bridge {
		kind = "bridge"
	}
	return fmt.Sprintf("%s%d@c%d:p%d", kind, t.ID, t.Key.CodeID, t.Key.PC)
}

// TierLabel is TraceLabel's lower-tier analog: the mtjit.TierCode.Label
// of tier t's code with the given ID, or "" when the ID is unknown.
func (l *Log) TierLabel(t mtjit.Tier, id uint64) string {
	for ; l.codeIndexed < len(l.Code); l.codeIndexed++ {
		c := l.Code[l.codeIndexed]
		if l.codeByID[c.Tier] == nil {
			l.codeByID[c.Tier] = map[uint32]*mtjit.TierCode{}
		}
		l.codeByID[c.Tier][c.ID] = c
	}
	if c := l.codeByID[t][uint32(id)]; c != nil {
		return c.Label()
	}
	return ""
}

// Attach registers the log with an engine's compile hooks.
func Attach(eng *mtjit.Engine) *Log {
	l := &Log{}
	eng.OnCompile = func(t *mtjit.Trace) { l.Traces = append(l.Traces, t) }
	eng.OnTierCompile = func(c *mtjit.TierCode) { l.Code = append(l.Code, c) }
	return l
}

// Stats is what Figures 6-9 need from a finished log, as plain numbers: a
// run keeps this and lets the traces go. Both arrays are indexed by
// opcode and count OpLabel like any other node; the figures that exclude
// labels (6, 7, 9 and the hot fraction) skip that one index.
type Stats struct {
	// Compiled counts the IR nodes of each type across all traces.
	Compiled [mtjit.NumOpcodes]uint64
	// Dynamic counts how often nodes of each type executed.
	Dynamic [mtjit.NumOpcodes]uint64
	// Hot95 is the fraction of compiled non-label nodes that account for
	// 95% of their dynamic executions (Figure 6b).
	Hot95 float64
}

// Stats reduces the log in one walk over Traces x Ops. A node's execution
// count is the trace's entry count minus the failures of the guards
// before it — Trace.OpExecs, derived in place so the walk allocates one
// slice per log, not one per trace.
func (l *Log) Stats() Stats {
	var s Stats
	nodes := 0
	for _, t := range l.Traces {
		nodes += len(t.Ops)
	}
	execs := make([]uint64, 0, nodes)
	for _, t := range l.Traces {
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

// Dump renders lower-tier and trace records in PyPy-log style for
// debugging; every record leads with its tier tag.
func (l *Log) Dump() string {
	var sb strings.Builder
	for _, c := range l.Code {
		status := ""
		if c.Invalidated {
			status = " (invalidated)"
		}
		fmt.Fprintf(&sb, "# tier%d %s %d (code %d pc %d-%d) entered %d times, %d deopts, %d ops, %d asm bytes%s\n",
			c.Tier+1, c.Tier, c.ID, c.CodeID, c.Start, c.End, c.EnterCount, c.DeoptCount, len(c.Ops), c.AsmLen*4, status)
	}
	for _, t := range l.Traces {
		kind := "loop"
		if t.Bridge {
			kind = "bridge"
		}
		fmt.Fprintf(&sb, "# tier2 %s %d (code %d pc %d) executed %d times, %d ops, %d asm bytes\n",
			kind, t.ID, t.Key.CodeID, t.Key.PC, t.ExecCount, len(t.Ops), t.AsmLen*4)
		for i, n := range t.OpExecs() {
			fmt.Fprintf(&sb, "  [%6d] %s\n", n, t.Ops[i].String())
		}
	}
	return sb.String()
}
