package harness

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"metajit/internal/bench"
	"metajit/internal/core"
	"metajit/internal/jitlog"
	"metajit/internal/mtjit"
)

// DefaultSampleInterval is the WorkMeter sampling period (instructions)
// used by the sampled experiments (Figures 3, 5 and 10).
const DefaultSampleInterval = 200_000

// cellOpt is the one Options every table and figure asks for its cells
// under. Sampling retires no simulated instruction, so a sampled cell
// serves the tables that do not read Result.Samples too; a second,
// unsampled request for the same run would simulate it twice.
var cellOpt = Options{SampleInterval: DefaultSampleInterval}

// errCell is the table cell rendered for a failed run; the error itself
// is recorded on the Runner and summarized at exit.
const errCell = "ERR"

// Table1 reproduces Table I: PyPy-suite performance of the reference
// interpreter, the framework interpreter without JIT, and with JIT —
// time, speedup vs the reference, IPC, and branch MPKI.
func Table1(r *Runner, progs []bench.Program) string {
	for i := range progs {
		p := &progs[i]
		r.Prefetch(p, VMCPython, cellOpt)
		r.Prefetch(p, VMPyPyNoJIT, cellOpt)
		r.Prefetch(p, VMPyPyJIT, cellOpt)
		r.Prefetch(p, VMPyPyTiered, cellOpt)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table I: PyPy Benchmark Suite Performance (simulated; t in Mcycles)\n")
	fmt.Fprintf(&sb, "%-20s %10s %6s %6s | %10s %6s %6s %6s | %10s %6s %6s %6s | %10s %6s %6s %6s\n",
		"Benchmark", "CPy t", "IPC", "MPKI", "noJIT t", "vC", "IPC", "MPKI", "JIT t", "vC", "IPC", "MPKI",
		"tiered t", "vC", "IPC", "MPKI")
	type row struct {
		name    string
		text    string
		speedup float64
	}
	var rows []row
	for i := range progs {
		p := &progs[i]
		rc, errC := r.Get(p, VMCPython, cellOpt)
		rn, errN := r.Get(p, VMPyPyNoJIT, cellOpt)
		rj, errJ := r.Get(p, VMPyPyJIT, cellOpt)
		rt, errT := r.Get(p, VMPyPyTiered, cellOpt)
		if errC != nil || errN != nil || errJ != nil || errT != nil {
			rows = append(rows, row{name: p.Name, speedup: -1,
				text: fmt.Sprintf("%-20s %s", p.Name, errCell)})
			continue
		}
		if rc.Checksum != rn.Checksum || rc.Checksum != rj.Checksum || rc.Checksum != rt.Checksum {
			r.Fail(fmt.Errorf("table1: checksum mismatch on %s: %d/%d/%d/%d",
				p.Name, rc.Checksum, rn.Checksum, rj.Checksum, rt.Checksum))
		}
		sp := rc.Cycles / rj.Cycles
		text := fmt.Sprintf("%-20s %10.2f %6.2f %6.2f | %10.2f %6.2f %6.2f %6.2f | %10.2f %6.2f %6.2f %6.2f | %10.2f %6.2f %6.2f %6.2f",
			p.Name,
			rc.Cycles/1e6, rc.Total.IPC(), rc.Total.MPKI(),
			rn.Cycles/1e6, rc.Cycles/rn.Cycles, rn.Total.IPC(), rn.Total.MPKI(),
			rj.Cycles/1e6, sp, rj.Total.IPC(), rj.Total.MPKI(),
			rt.Cycles/1e6, rc.Cycles/rt.Cycles, rt.Total.IPC(), rt.Total.MPKI())
		rows = append(rows, row{name: p.Name, text: text, speedup: sp})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].speedup > rows[j].speedup })
	for _, row := range rows {
		sb.WriteString(row.text)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// table2Kinds returns the VM columns applicable to a CLBG program.
func table2Kinds(p *bench.Program) []VMKind {
	kinds := []VMKind{VMCPython, VMPyPyJIT}
	if p.Static {
		kinds = append(kinds, VMC)
	}
	if p.SkSource != "" {
		kinds = append(kinds, VMRacket, VMPycket)
	}
	return kinds
}

// Table2 reproduces Table II: CLBG times across CPython, PyPy, Racket,
// Pycket, and statically compiled C analogs.
func Table2(r *Runner, progs []bench.Program) string {
	for i := range progs {
		for _, kind := range table2Kinds(&progs[i]) {
			r.Prefetch(&progs[i], kind, cellOpt)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table II: CLBG Performance (simulated Mcycles; '-' = not supported, as with Pycket in the paper)\n")
	fmt.Fprintf(&sb, "%-16s %10s %10s %10s %10s %10s\n",
		"Benchmark", "C", "CPython", "PyPy", "Racket", "Pycket")
	for i := range progs {
		p := &progs[i]
		cell := func(kind VMKind) string {
			if kind == VMC && !p.Static {
				return "-"
			}
			if (kind == VMRacket || kind == VMPycket) && p.SkSource == "" {
				return "-"
			}
			res, err := r.Get(p, kind, cellOpt)
			if err != nil {
				return errCell
			}
			return fmt.Sprintf("%.2f", res.Cycles/1e6)
		}
		fmt.Fprintf(&sb, "%-16s %10s %10s %10s %10s %10s\n",
			p.Name, cell(VMC), cell(VMCPython), cell(VMPyPyJIT), cell(VMRacket), cell(VMPycket))
	}
	return sb.String()
}

// Fig2 reproduces Figure 2: execution-time breakdown by framework phase
// for the PyPy suite under the meta-tracing JIT.
func Fig2(r *Runner, progs []bench.Program) string {
	for i := range progs {
		r.Prefetch(&progs[i], VMPyPyJIT, cellOpt)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 2: Phase breakdown (%% of instructions, PyPy with JIT)\n")
	fmt.Fprintf(&sb, "%-20s %8s %8s %8s %8s %8s %8s %8s %8s %8s %8s\n",
		"Benchmark", "interp", "tracing", "jit", "jitcall", "gc", "blkhole", "basecomp", "baseline", "methcomp", "method")
	for i := range progs {
		p := &progs[i]
		res, err := r.Get(p, VMPyPyJIT, cellOpt)
		if err != nil {
			fmt.Fprintf(&sb, "%-20s %s\n", p.Name, errCell)
			continue
		}
		fmt.Fprintf(&sb, "%-20s", p.Name)
		for _, ph := range core.AllPhases() {
			fmt.Fprintf(&sb, " %7.1f%%", 100*res.PhaseFraction(ph))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// phaseBar renders one Figure 3 interval as a bar of exactly width chars,
// one letter per phase, sized by largest-remainder rounding so small but
// nonzero phases always keep at least one character.
func phaseBar(deltas [core.NumPhases]uint64, total uint64, letters []byte, width int) string {
	type seat struct {
		ph   int
		n    int
		frac float64
	}
	var seats []seat
	assigned := 0
	for ph, d := range deltas {
		if d == 0 {
			continue
		}
		exact := float64(width) * float64(d) / float64(total)
		n := int(exact)
		if n == 0 {
			n = 1 // nonzero phases must stay visible
		}
		seats = append(seats, seat{ph: ph, n: n, frac: exact - float64(int(exact))})
		assigned += n
	}
	// Distribute leftovers to the largest remainders; on overflow (from
	// the minimum-1 bumps) shave the widest bars. Ties break on phase
	// order, keeping the bar deterministic.
	for assigned < width {
		best := -1
		for i := range seats {
			if best < 0 || seats[i].frac > seats[best].frac {
				best = i
			}
		}
		seats[best].n++
		seats[best].frac = 0
		assigned++
	}
	for assigned > width {
		widest := -1
		for i := range seats {
			if seats[i].n > 1 && (widest < 0 || seats[i].n > seats[widest].n) {
				widest = i
			}
		}
		if widest < 0 {
			break // more nonzero phases than columns; give up gracefully
		}
		seats[widest].n--
		assigned--
	}
	var bar strings.Builder
	for _, s := range seats {
		bar.Write(bytesRepeat(letters[s.ph], s.n))
	}
	return bar.String()
}

func bytesRepeat(b byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

// Fig3 reproduces Figure 3: phase timeline over execution for a
// fast-warming and a slow-warming benchmark.
func Fig3(r *Runner, fast, slow string) string {
	for _, name := range []string{fast, slow} {
		r.Prefetch(bench.ByName(name), VMPyPyJIT, cellOpt)
	}
	var sb strings.Builder
	for _, name := range []string{fast, slow} {
		res, err := r.Get(bench.ByName(name), VMPyPyJIT, cellOpt)
		fmt.Fprintf(&sb, "Figure 3 (%s): per-interval dominant phase\n", name)
		if err != nil {
			fmt.Fprintf(&sb, "%s\n", errCell)
			continue
		}
		fmt.Fprintf(&sb, "%12s  %s\n", "instrs", "interval phase mix (I=interp T=tracing J=jit C=jitcall G=gc B=blackhole k=basecomp b=baseline M=methcomp m=method)")
		letters := []byte{'I', 'T', 'J', 'C', 'G', 'B', 'k', 'b', 'M', 'm'}
		var prev [core.NumPhases]uint64
		for _, s := range res.Samples {
			var deltas [core.NumPhases]uint64
			var total uint64
			for ph := range s.PhaseInstrs {
				deltas[ph] = s.PhaseInstrs[ph] - prev[ph]
				total += deltas[ph]
				prev[ph] = s.PhaseInstrs[ph]
			}
			if total == 0 {
				continue
			}
			fmt.Fprintf(&sb, "%12d  %s\n", s.Instrs, phaseBar(deltas, total, letters, 40))
		}
	}
	return sb.String()
}

// Fig4 reproduces Figure 4: phase breakdown of PyPy vs Pycket on CLBG.
func Fig4(r *Runner, progs []bench.Program) string {
	for i := range progs {
		r.Prefetch(&progs[i], VMPyPyJIT, cellOpt)
		if progs[i].SkSource != "" {
			r.Prefetch(&progs[i], VMPycket, cellOpt)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 4: Phase breakdown, PyPy vs Pycket (CLBG)\n")
	fmt.Fprintf(&sb, "%-16s %-7s %8s %8s %8s %8s %8s %8s %8s %8s %8s %8s\n",
		"Benchmark", "VM", "interp", "tracing", "jit", "jitcall", "gc", "blkhole", "basecomp", "baseline", "methcomp", "method")
	for i := range progs {
		p := &progs[i]
		for _, kind := range []VMKind{VMPyPyJIT, VMPycket} {
			if kind == VMPycket && p.SkSource == "" {
				continue
			}
			res, err := r.Get(p, kind, cellOpt)
			if err != nil {
				fmt.Fprintf(&sb, "%-16s %-7s %s\n", p.Name, kind, errCell)
				continue
			}
			fmt.Fprintf(&sb, "%-16s %-7s", p.Name, kind)
			for _, ph := range core.AllPhases() {
				fmt.Fprintf(&sb, " %7.1f%%", 100*res.PhaseFraction(ph))
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// AOTEntry is one Table III row.
type AOTEntry struct {
	Bench   string
	Percent float64
	Src     string
	Name    string
}

// Table3Data computes the significant AOT-compiled functions called from
// meta-traces (>= minPercent of total execution). Failed cells are
// skipped; their errors live on the Runner.
func Table3Data(r *Runner, progs []bench.Program, minPercent float64) []AOTEntry {
	for i := range progs {
		r.Prefetch(&progs[i], VMPyPyJIT, cellOpt)
	}
	var out []AOTEntry
	for i := range progs {
		p := &progs[i]
		res, err := r.Get(p, VMPyPyJIT, cellOpt)
		if err != nil {
			continue
		}
		for _, f := range res.AOT {
			pct := 100 * f.Cycles / res.Cycles
			if pct >= minPercent {
				out = append(out, AOTEntry{Bench: p.Name, Percent: pct, Src: f.Src, Name: f.Name})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bench != out[j].Bench {
			return out[i].Bench < out[j].Bench
		}
		if out[i].Percent != out[j].Percent {
			return out[i].Percent > out[j].Percent
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Table3 renders Table III.
func Table3(r *Runner, progs []bench.Program) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table III: Significant AOT-compiled functions called from meta-traces (>=5%% of execution)\n")
	fmt.Fprintf(&sb, "%-20s %6s %4s %s\n", "Benchmark", "%", "Src", "Function")
	for _, e := range Table3Data(r, progs, 5) {
		fmt.Fprintf(&sb, "%-20s %6.1f %4s %s\n", e.Bench, e.Percent, e.Src, e.Name)
	}
	return sb.String()
}

// WarmupData holds Figure 5's series for one benchmark.
type WarmupData struct {
	Bench string
	// Points are (instrs, rate-normalized-to-CPython).
	Instrs []uint64
	Rate   []float64
	// BreakEvenCPy / BreakEvenNoJIT: instruction counts where PyPy's
	// cumulative bytecodes catch up with each baseline (0 = never in
	// the window).
	BreakEvenCPy   uint64
	BreakEvenNoJIT uint64
	// FinalSpeedup is the end-of-run cycle speedup over CPython.
	FinalSpeedup float64
}

// Fig5Data computes warmup curves: bytecode execution rate of PyPy (with
// JIT) normalized to the reference interpreter's steady rate, plus
// break-even points (Section V-D). interval is the sampling period of
// the pypy series; the two baselines are the tables' cells.
func Fig5Data(r *Runner, p *bench.Program, interval uint64) (WarmupData, error) {
	r.Prefetch(p, VMPyPyJIT, Options{SampleInterval: interval})
	r.Prefetch(p, VMCPython, cellOpt)
	r.Prefetch(p, VMPyPyNoJIT, cellOpt)
	rj, errJ := r.Get(p, VMPyPyJIT, Options{SampleInterval: interval})
	rc, errC := r.Get(p, VMCPython, cellOpt)
	rn, errN := r.Get(p, VMPyPyNoJIT, cellOpt)
	for _, err := range []error{errJ, errC, errN} {
		if err != nil {
			return WarmupData{}, err
		}
	}

	cpyRate := float64(rc.Bytecodes) / float64(rc.Instrs)
	nojitRate := float64(rn.Bytecodes) / float64(rn.Instrs)

	w := WarmupData{Bench: p.Name, FinalSpeedup: rc.Cycles / rj.Cycles}
	var prevI, prevB uint64
	for _, s := range rj.Samples {
		di := s.Instrs - prevI
		db := s.Bytecodes - prevB
		if di == 0 {
			continue
		}
		rate := (float64(db) / float64(di)) / cpyRate
		w.Instrs = append(w.Instrs, s.Instrs)
		w.Rate = append(w.Rate, rate)
		if w.BreakEvenCPy == 0 && float64(s.Bytecodes) >= cpyRate*float64(s.Instrs) {
			w.BreakEvenCPy = s.Instrs
		}
		if w.BreakEvenNoJIT == 0 && float64(s.Bytecodes) >= nojitRate*float64(s.Instrs) {
			w.BreakEvenNoJIT = s.Instrs
		}
		prevI, prevB = s.Instrs, s.Bytecodes
	}
	return w, nil
}

// Fig5 renders warmup curves as text sparklines.
func Fig5(r *Runner, progs []bench.Program) string {
	for i := range progs {
		p := &progs[i]
		r.Prefetch(p, VMPyPyJIT, cellOpt)
		r.Prefetch(p, VMCPython, cellOpt)
		r.Prefetch(p, VMPyPyNoJIT, cellOpt)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 5: PyPy warmup - bytecode rate normalized to CPython\n")
	for i := range progs {
		w, err := Fig5Data(r, &progs[i], DefaultSampleInterval)
		if err != nil {
			fmt.Fprintf(&sb, "%-20s %s\n", progs[i].Name, errCell)
			continue
		}
		fmt.Fprintf(&sb, "%-20s speedup %5.1fx  break-even: vs CPython @%s, vs noJIT @%s\n",
			w.Bench, w.FinalSpeedup, fmtInstr(w.BreakEvenCPy), fmtInstr(w.BreakEvenNoJIT))
		fmt.Fprintf(&sb, "%-20s |", "")
		for _, rate := range w.Rate {
			sb.WriteByte(sparkChar(rate))
		}
		sb.WriteString("|\n")
	}
	return sb.String()
}

func fmtInstr(v uint64) string {
	if v == 0 {
		return "never"
	}
	return fmt.Sprintf("%.1fM", float64(v)/1e6)
}

func sparkChar(rate float64) byte {
	levels := " .:-=+*#%@"
	i := int(rate * 2)
	if i < 0 {
		i = 0
	}
	if i >= len(levels) {
		i = len(levels) - 1
	}
	return levels[i]
}

// Fig6 reproduces Figure 6: IR nodes compiled, hot-node concentration,
// and dynamic IR nodes per million instructions.
func Fig6(r *Runner, progs []bench.Program) string {
	for i := range progs {
		r.Prefetch(&progs[i], VMPyPyJIT, cellOpt)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 6: JIT IR node compilation and execution statistics\n")
	fmt.Fprintf(&sb, "%-20s %12s %16s %16s\n",
		"Benchmark", "(a) compiled", "(b) hot95%% frac", "(c) nodes/1M instr")
	for i := range progs {
		p := &progs[i]
		res, err := r.Get(p, VMPyPyJIT, cellOpt)
		if err != nil {
			fmt.Fprintf(&sb, "%-20s %s\n", p.Name, errCell)
			continue
		}
		fmt.Fprintf(&sb, "%-20s %12d %15.1f%% %16.0f\n",
			p.Name,
			res.IR.CompiledNodes(),
			100*res.IR.Hot95,
			float64(res.IR.DynamicNodes())/(float64(res.Instrs)/1e6))
	}
	return sb.String()
}

// Fig7 reproduces Figure 7: IR node category breakdown per benchmark.
func Fig7(r *Runner, progs []bench.Program) string {
	for i := range progs {
		r.Prefetch(&progs[i], VMPyPyJIT, cellOpt)
	}
	var sb strings.Builder
	cats := mtjit.AllCategories()
	fmt.Fprintf(&sb, "Figure 7: dynamic IR node categories (%% of executed nodes)\n")
	fmt.Fprintf(&sb, "%-20s", "Benchmark")
	for _, c := range cats {
		fmt.Fprintf(&sb, " %7s", c)
	}
	sb.WriteByte('\n')
	var totals [mtjit.NumCategories]float64
	n := 0
	for i := range progs {
		p := &progs[i]
		res, err := r.Get(p, VMPyPyJIT, cellOpt)
		if err != nil {
			fmt.Fprintf(&sb, "%-20s %s\n", p.Name, errCell)
			continue
		}
		br := res.IR.Categories()
		fmt.Fprintf(&sb, "%-20s", p.Name)
		for _, c := range cats {
			fmt.Fprintf(&sb, " %6.1f%%", 100*br[c])
			totals[c] += br[c]
		}
		sb.WriteByte('\n')
		n++
	}
	if n > 0 {
		fmt.Fprintf(&sb, "%-20s", "MEAN")
		for _, c := range cats {
			fmt.Fprintf(&sb, " %6.1f%%", 100*totals[c]/float64(n))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// suiteIR sums the per-opcode IR statistics of the suite's pypy cells
// (Figures 8 and 9 are suite aggregates); failed cells are skipped.
func suiteIR(r *Runner, progs []bench.Program) (sum jitlog.Stats) {
	for i := range progs {
		r.Prefetch(&progs[i], VMPyPyJIT, cellOpt)
	}
	for i := range progs {
		res, err := r.Get(&progs[i], VMPyPyJIT, cellOpt)
		if err != nil {
			continue
		}
		for opc := range sum.Compiled {
			sum.Compiled[opc] += res.IR.Compiled[opc]
			sum.Dynamic[opc] += res.IR.Dynamic[opc]
		}
	}
	return sum
}

// Fig8 reproduces Figure 8: the dynamic frequency histogram of IR node
// types across the suite.
func Fig8(r *Runner, progs []bench.Program) string {
	ir := suiteIR(r, progs)
	type kv struct {
		opc mtjit.Opcode
		n   uint64
	}
	// A node type has a row once any benchmark compiled it, executed or
	// not, and labels count here as any other node.
	var list []kv
	var total uint64
	for opc, n := range ir.Dynamic {
		if ir.Compiled[opc] > 0 {
			list = append(list, kv{mtjit.Opcode(opc), n})
			total += n
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n > list[j].n
		}
		return list[i].opc < list[j].opc
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 8: dynamic frequency of IR node types (suite aggregate)\n")
	for _, e := range list {
		fmt.Fprintf(&sb, "%-22s %6.2f%%  %s\n", e.opc.Name(),
			100*float64(e.n)/float64(total),
			strings.Repeat("#", int(60*float64(e.n)/float64(total))))
	}
	return sb.String()
}

// Fig9 reproduces Figure 9: mean assembly instructions per IR node type.
func Fig9(r *Runner, progs []bench.Program) string {
	ir := suiteIR(r, progs)
	type kv struct {
		opc mtjit.Opcode
		asm float64
	}
	var list []kv
	for opc, n := range ir.Compiled {
		if o := mtjit.Opcode(opc); n > 0 && o != mtjit.OpLabel {
			list = append(list, kv{o, float64(o.AsmLen())})
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].asm != list[j].asm {
			return list[i].asm > list[j].asm
		}
		return list[i].opc < list[j].opc
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 9: assembly instructions per IR node type\n")
	for _, e := range list {
		fmt.Fprintf(&sb, "%-22s %5.1f  %s\n", e.opc.Name(), e.asm,
			strings.Repeat("#", int(e.asm)))
	}
	return sb.String()
}

// Table4 reproduces Table IV: per-phase microarchitectural statistics
// (mean and standard deviation over the suite).
func Table4(r *Runner, progs []bench.Program) string {
	for i := range progs {
		r.Prefetch(&progs[i], VMPyPyJIT, cellOpt)
	}
	type acc struct {
		ipc, br, miss []float64
	}
	accs := map[core.Phase]*acc{}
	for _, ph := range core.AllPhases() {
		accs[ph] = &acc{}
	}
	for i := range progs {
		res, err := r.Get(&progs[i], VMPyPyJIT, cellOpt)
		if err != nil {
			continue
		}
		for _, ph := range core.AllPhases() {
			c := res.Phases[ph]
			// The paper folds JIT calls into the JIT phase for this
			// table.
			if ph == core.PhaseJIT {
				c.Add(res.Phases[core.PhaseJITCall])
			}
			if ph == core.PhaseJITCall {
				continue
			}
			if c.Instrs < 10000 {
				continue // too little data to be meaningful
			}
			a := accs[ph]
			a.ipc = append(a.ipc, c.IPC())
			a.br = append(a.br, c.BranchRate())
			a.miss = append(a.miss, c.MissRate())
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table IV: per-phase microarchitectural statistics (mean +/- std over suite)\n")
	fmt.Fprintf(&sb, "%-10s %16s %20s %18s\n", "Phase", "IPC", "branches/instr", "branch miss rate")
	for _, ph := range core.AllPhases() {
		if ph == core.PhaseJITCall {
			continue
		}
		a := accs[ph]
		if len(a.ipc) == 0 {
			continue
		}
		m1, s1 := meanStd(a.ipc)
		m2, s2 := meanStd(a.br)
		m3, s3 := meanStd(a.miss)
		fmt.Fprintf(&sb, "%-10s %8.2f +/-%5.2f %12.3f +/-%6.3f %10.3f +/-%6.3f\n",
			ph, m1, s1, m2, s2, m3, s3)
	}
	return sb.String()
}

// WarmupCycles returns the simulated cycle count at which the run had
// completed frac of its total guest bytecodes, linearly interpolating
// between WorkMeter samples (from the origin before the first sample).
// Falls back to total cycles when the sampled window never reaches the
// target.
func WarmupCycles(res *Result, frac float64) float64 {
	target := frac * float64(res.Bytecodes)
	var prevB, prevC float64
	for _, s := range res.Samples {
		b, c := float64(s.Bytecodes), float64(s.Cycles)
		if b >= target {
			if b == prevB {
				return c
			}
			return prevC + (c-prevC)*(target-prevB)/(b-prevB)
		}
		prevB, prevC = b, c
	}
	return res.Cycles
}

// TierStrategies lists the Figure 10 shootout columns in order: the
// single-tier tracing JIT, the two-tier (baseline + tracing)
// configuration, the amalgamated (baseline + tracing + method)
// configuration with static thresholds, and the amalgamated
// configuration under the adaptive tier controller.
var TierStrategies = []VMKind{VMPyPyJIT, VMPyPyTiered, VMPyPyAmalg, VMPyPyAdaptive}

// tierStrategyLabels are the short column labels, in TierStrategies
// order.
var tierStrategyLabels = []string{"jit", "tier", "amalg", "adpt"}

// TierRow is one benchmark's tier-strategy shootout measurements:
// cycles to reach 25% and 50% of total guest bytecodes, and the run
// total, one entry per TierStrategies element. Err marks a row whose
// runs failed (the errors live on the Runner).
type TierRow struct {
	Bench string
	W25   [4]float64
	W50   [4]float64
	Total [4]float64
	Err   bool
}

// Fig10Data runs the tier-strategy shootout: every benchmark on every
// TierStrategies configuration, with cross-strategy checksum and work
// totals verified (the same guest progress must mean the same work in
// every configuration).
func Fig10Data(r *Runner, progs []bench.Program) []TierRow {
	for i := range progs {
		for _, kind := range TierStrategies {
			r.Prefetch(&progs[i], kind, cellOpt)
		}
	}
	rows := make([]TierRow, 0, len(progs))
	for i := range progs {
		p := &progs[i]
		row := TierRow{Bench: p.Name}
		var res [4]*Result
		for s, kind := range TierStrategies {
			rr, err := r.Get(p, kind, cellOpt)
			if err != nil {
				row.Err = true
				break
			}
			res[s] = rr
		}
		if !row.Err {
			for s := 1; s < len(res); s++ {
				if res[s].Checksum != res[0].Checksum {
					r.Fail(fmt.Errorf("fig10: checksum mismatch on %s: %s=%d %s=%d",
						p.Name, TierStrategies[0], res[0].Checksum,
						TierStrategies[s], res[s].Checksum))
				}
				if res[s].Bytecodes != res[0].Bytecodes {
					r.Fail(fmt.Errorf("fig10: work mismatch on %s: %s=%d %s=%d bytecodes",
						p.Name, TierStrategies[0], res[0].Bytecodes,
						TierStrategies[s], res[s].Bytecodes))
				}
			}
			for s, rr := range res {
				row.W25[s] = WarmupCycles(rr, 0.25)
				row.W50[s] = WarmupCycles(rr, 0.50)
				row.Total[s] = rr.Cycles
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// Fig10 is the tier-strategy shootout: cycles for each tier
// configuration to complete 25% and 50% of the run's total guest
// bytecodes, plus run totals. Work totals are layer-independent
// (Section IV), so the same fraction means the same guest progress in
// every configuration; a smaller cell means that strategy reached that
// much work sooner.
func Fig10(r *Runner, progs []bench.Program) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 10: tier-strategy shootout - Mcycles to reach a fraction of total work\n")
	fmt.Fprintf(&sb, "%-20s", "Benchmark")
	for _, part := range []string{"25%", "50%", "tot"} {
		if part != "25%" {
			sb.WriteString(" |")
		}
		for _, lab := range tierStrategyLabels {
			fmt.Fprintf(&sb, " %8s", lab+" "+part)
		}
	}
	sb.WriteByte('\n')
	for _, row := range Fig10Data(r, progs) {
		if row.Err {
			fmt.Fprintf(&sb, "%-20s %s\n", row.Bench, errCell)
			continue
		}
		fmt.Fprintf(&sb, "%-20s", row.Bench)
		for gi, group := range [][4]float64{row.W25, row.W50, row.Total} {
			if gi != 0 {
				sb.WriteString(" |")
			}
			for _, v := range group {
				fmt.Fprintf(&sb, " %8.2f", v/1e6)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}
