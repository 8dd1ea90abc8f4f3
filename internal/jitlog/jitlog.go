// Package jitlog is the analog of the PyPy Log facility (Section III): it
// records, for every compiled trace and bridge, the JIT IR nodes, the
// lowered assembly footprint, and execution counts, supporting the JIT-IR
// level studies (Figures 6-9).
package jitlog

import (
	"fmt"
	"sort"
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

// TotalIRNodes returns the number of IR nodes compiled across all traces
// (Figure 6a's metric).
func (l *Log) TotalIRNodes() int {
	n := 0
	for _, t := range l.Traces {
		n += t.NewOpsCount()
	}
	return n
}

// TotalAsmInstrs returns the lowered assembly footprint.
func (l *Log) TotalAsmInstrs() int {
	n := 0
	for _, t := range l.Traces {
		n += t.AsmLen
	}
	return n
}

// OpcodeFreq is the dynamic execution count of one IR node type.
type OpcodeFreq struct {
	Opc   mtjit.Opcode
	Count uint64
}

// DynamicOpcodeHistogram returns per-opcode dynamic execution counts,
// descending (Figure 8).
func (l *Log) DynamicOpcodeHistogram() []OpcodeFreq {
	counts := map[mtjit.Opcode]uint64{}
	for _, t := range l.Traces {
		for i, n := range t.OpExecs() {
			counts[t.Ops[i].Opc] += n
		}
	}
	out := make([]OpcodeFreq, 0, len(counts))
	for opc, c := range counts {
		out = append(out, OpcodeFreq{Opc: opc, Count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}

// CategoryBreakdown returns the dynamic IR-node category mix (Figure 7),
// as fractions summing to 1 (zero map if nothing executed).
func (l *Log) CategoryBreakdown() map[mtjit.Category]float64 {
	counts := map[mtjit.Category]uint64{}
	var total uint64
	for _, t := range l.Traces {
		for i, n := range t.OpExecs() {
			if t.Ops[i].Opc == mtjit.OpLabel {
				continue
			}
			counts[t.Ops[i].Opc.Cat()] += n
			total += n
		}
	}
	out := map[mtjit.Category]float64{}
	if total == 0 {
		return out
	}
	for c, n := range counts {
		out[c] = float64(n) / float64(total)
	}
	return out
}

// HotNodeFraction returns the fraction of compiled IR nodes that account
// for the given share of dynamic executions (Figure 6b with share=0.95).
func (l *Log) HotNodeFraction(share float64) float64 {
	type node struct{ execs uint64 }
	var nodes []node
	var total uint64
	for _, t := range l.Traces {
		for i, n := range t.OpExecs() {
			if t.Ops[i].Opc == mtjit.OpLabel {
				continue
			}
			nodes = append(nodes, node{execs: n})
			total += n
		}
	}
	if total == 0 || len(nodes) == 0 {
		return 0
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].execs > nodes[j].execs })
	target := uint64(float64(total) * share)
	var acc uint64
	for i, n := range nodes {
		acc += n.execs
		if acc >= target {
			return float64(i+1) / float64(len(nodes))
		}
	}
	return 1
}

// DynamicIRNodes returns total IR-node executions (Figure 6c's numerator).
func (l *Log) DynamicIRNodes() uint64 {
	var n uint64
	for _, t := range l.Traces {
		for i, execs := range t.OpExecs() {
			if t.Ops[i].Opc != mtjit.OpLabel {
				n += execs
			}
		}
	}
	return n
}

// AsmPerOpcode returns the mean lowered-assembly instruction count per IR
// node type, for types that appear in the log (Figure 9).
func (l *Log) AsmPerOpcode() map[mtjit.Opcode]float64 {
	out := map[mtjit.Opcode]float64{}
	seen := map[mtjit.Opcode]bool{}
	for _, t := range l.Traces {
		for i := range t.Ops {
			opc := t.Ops[i].Opc
			if !seen[opc] && opc != mtjit.OpLabel {
				seen[opc] = true
				out[opc] = float64(opc.AsmLen())
			}
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
