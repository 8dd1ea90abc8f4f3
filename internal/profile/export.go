package profile

import (
	"fmt"
	"io"
	"sort"

	"metajit/internal/core"
	"metajit/internal/cpu"
)

// WriteFolded emits the folded-stack flamegraph text: one line per
// stack signature (semicolon-joined phase→tier→trace-id frames),
// weighted by cycles rounded to the nearest integer. Lines are sorted
// by signature so output is deterministic. Feed to flamegraph.pl or
// speedscope.
func (s *Stream) WriteFolded(w io.Writer) error {
	flame := s.flame()
	sigs := make([]string, 0, len(flame))
	for sig := range flame {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		if _, err := fmt.Fprintf(w, "%s %d\n", sig, (flame[sig]+cpu.UnitsPerCycle/2)/cpu.UnitsPerCycle); err != nil {
			return err
		}
	}
	return nil
}

// flame flattens the signature tree into units per signature string,
// merging nodes whose keys resolved to one label and leaving out stacks
// that never ran.
func (s *Stream) flame() map[string]uint64 {
	out := map[string]uint64{}
	for _, n := range s.nodes {
		if n.units != 0 || n.instrs != 0 {
			out[n.sig] += n.units
		}
	}
	return out
}

// WriteSeries emits the interval time-series as a TSV: one row per
// window with per-phase IPC and per-phase miss rates (per kilo-instr),
// plus the window's aggregate. Empty unless Config.Window was set.
func (s *Stream) WriteSeries(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# window instruction-interval series (window=%d)\n", s.cfg.Window); err != nil {
		return err
	}
	if _, err := io.WriteString(w, "start\tend\tinstrs\tipc\tbr_mpki\tl1_mpki\tl2_mpki"); err != nil {
		return err
	}
	for ph := core.Phase(0); ph < core.NumPhases; ph++ {
		if _, err := fmt.Fprintf(w, "\t%s_instrs\t%s_ipc", ph, ph); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for _, win := range s.windows {
		var tot State
		for ph := range win.Phases {
			tot.Add(win.Phases[ph])
		}
		if _, err := fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%s\t%s",
			win.Start, win.End, tot.Instrs,
			ratio(float64(tot.Instrs), cpu.CyclesOf(tot.Units)),
			ratio(float64(tot.Mispredicts)*1000, float64(tot.Instrs)),
			ratio(float64(tot.L1Miss)*1000, float64(tot.Instrs)),
			ratio(float64(tot.L2Miss)*1000, float64(tot.Instrs))); err != nil {
			return err
		}
		for ph := range win.Phases {
			p := win.Phases[ph]
			if _, err := fmt.Fprintf(w, "\t%d\t%s", p.Instrs, ratio(float64(p.Instrs), cpu.CyclesOf(p.Units))); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// ratio formats num/den with 3 decimals, "0.000" when den is zero.
func ratio(num, den float64) string {
	if den == 0 {
		return "0.000"
	}
	return fmt.Sprintf("%.3f", num/den)
}
