package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"metajit/internal/bench"
	"metajit/internal/harness"
)

// regen is paper_regen: what `cmd/experiments -exp all -j nproc` does, on
// a fresh memoizing Runner each time. An operation is one regeneration of
// every table and figure.
type regen struct {
	want string // results.txt
}

func setupRegen(e *env) (state, error) {
	blob, err := os.ReadFile("results.txt")
	if err != nil {
		return nil, err
	}
	var all []cell
	all = append(append(all, interpCells()...), jitCells()...)
	for _, c := range warmupCells(all) {
		if _, err := harness.Run(c.prog, c.kind, harness.Options{}); err != nil {
			return nil, err
		}
	}
	return &regen{string(blob)}, nil
}

func (r *regen) close() {}

type experiment struct {
	name string
	f    func() string
}

// experiments lists the paper's tables and figures in cmd/experiments
// order, which is the order of results.txt.
func experiments(r *harness.Runner) []experiment {
	pypy, clbg := bench.PyPySuite(), bench.CLBG()
	return []experiment{
		{"Table1", func() string { return harness.Table1(r, pypy) }},
		{"Table2", func() string { return harness.Table2(r, clbg) }},
		{"Fig2", func() string { return harness.Fig2(r, pypy) }},
		{"Fig3", func() string { return harness.Fig3(r, "crypto_pyaes", "meteor_contest") }},
		{"Fig4", func() string { return harness.Fig4(r, clbg) }},
		{"Table3", func() string { return harness.Table3(r, pypy) }},
		{"Fig5", func() string { return harness.Fig5(r, pypy) }},
		{"Fig6", func() string { return harness.Fig6(r, pypy) }},
		{"Fig7", func() string { return harness.Fig7(r, pypy) }},
		{"Fig8", func() string { return harness.Fig8(r, pypy) }},
		{"Fig9", func() string { return harness.Fig9(r, pypy) }},
		{"Fig10", func() string { return harness.Fig10(r, pypy) }},
		{"Table4", func() string { return harness.Table4(r, pypy) }},
	}
}

func (r *regen) run(e *env) (*measurement, error) {
	m := &measurement{layer: map[string]float64{}}
	budget := time.Duration(e.seconds * float64(time.Second))
	var (
		regens []timed
		instrs []float64 // simulated by each regeneration
		stats  harness.CacheStats
		sims   int
	)
	start := time.Now()
	e.cal.burst(refAround)
	for n := 0; ; n++ {
		// Another regeneration only if at least half of it fits.
		if n >= e.minUnits && time.Since(start)+regens[n-1].b.Sub(regens[n-1].a)/2 >= budget {
			break
		}
		sp := e.tr.start(e.root, "bench", "regeneration", "")
		runner := harness.NewRunner(e.clients)
		var sim simStats
		if e.tr != nil {
			// The traced run sees each simulation the Runner schedules.
			var mu sync.Mutex
			runner.SetSimulate(func(p *bench.Program, k harness.VMKind, o harness.Options) (*harness.Result, error) {
				id := harness.Key(p, k, o).String()
				call := e.tr.start(sp, "harness", "harness.Run", id)
				res, err := harness.Run(p, k, o)
				e.tr.end(call)
				if err == nil {
					mu.Lock()
					sim.add(id, res)
					mu.Unlock()
				}
				return res, err
			})
		}

		t := startTimed()
		exps := experiments(runner)
		outs := make([]chan string, len(exps))
		for i, x := range exps {
			ch := make(chan string, 1)
			outs[i] = ch
			go func(name string, f func() string) {
				call := e.tr.start(sp, "harness", name, "")
				s := f()
				e.tr.end(call)
				ch <- s
			}(x.name, x.f)
		}
		var out strings.Builder
		for _, ch := range outs {
			out.WriteString(<-ch)
			out.WriteByte('\n')
		}
		t.stop()
		e.tr.end(sp)
		e.cal.burst(refAround)

		m.attempted++
		if errs := runner.Errs(); len(errs) > 0 {
			m.fail(fmt.Sprintf("regeneration %d: %d cells failed, first: %v", n, len(errs), errs[0]))
		} else if out.String() != r.want {
			m.fail(fmt.Sprintf("regeneration %d: output differs from results.txt", n))
		}
		regens = append(regens, t)
		instrs = append(instrs, float64(runner.TotalSimInstrs()))

		stats, sims = runner.CacheStats(), runner.Simulations()
		// Untraced, the Runner keeps its cells to itself: the fingerprint is
		// the instruction total and the hash of the output.
		h := sha256.Sum256([]byte(out.String()))
		m.sim = simStats{instrs: runner.TotalSimInstrs(), lines: []string{"output " + hex.EncodeToString(h[:])}}
		if e.tr != nil {
			m.sim = sim
		}
	}
	walls, cpus, plain, mallocs := costs(regens, e.cal)
	per := func(xs []float64, unit float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x / (instrs[i] / unit)
		}
		return out
	}
	m.opNs = walls
	m.wallNsPerInstr = median(per(walls, 1))
	m.gmeanNsPerInstr = gmean(per(walls, 1))
	m.plainNsPerInstr = median(per(plain, 1))
	m.cpuNsPerInstr = median(per(cpus, 1))
	m.allocsPerKinstr = median(per(mallocs, 1000))

	regenS, cpuS := median(walls)/1e9, median(cpus)/1e9
	m.layer["harness.regen_s"] = regenS
	m.layer["harness.regen_cpu_s"] = cpuS
	m.layer["harness.regen_simulations"] = float64(sims)
	m.layer["harness.regen_memo_hit_share"] = stats.HitRate()
	m.layer["harness.regen_parallel_eff"] = ratio(cpuS, regenS*float64(e.clients))
	return m, nil
}
