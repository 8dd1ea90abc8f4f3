package main

import (
	"math/rand"
	"time"

	"metajit/internal/harness"
)

// sweep is interp_sweep or jit_sweep: a fixed set of cells through bare
// harness.Run on one goroutine, in seeded order, pass after pass until the
// time is up. An operation is one cell simulation.
type sweep struct {
	cells []cell
	exp   expectations
}

func setupSweep(cells []cell) (state, error) {
	exp, err := loadExpectations()
	if err != nil {
		return nil, err
	}
	// One untimed cell per VM kind, so that the first timed cell does not
	// pay for growing the Go heap.
	for _, c := range warmupCells(cells) {
		if _, err := harness.Run(c.prog, c.kind, harness.Options{}); err != nil {
			return nil, err
		}
	}
	return &sweep{cells, exp}, nil
}

func (s *sweep) close() {}

func (s *sweep) run(e *env) (*measurement, error) {
	m := &measurement{layer: map[string]float64{}}
	rng := rand.New(rand.NewSource(e.seed))
	budget := time.Duration(e.seconds * float64(time.Second))

	samples := make([][]timed, len(s.cells)) // per cell, one per pass
	first := make([]*harness.Result, len(s.cells))
	start := time.Now()
passes:
	for pass := 0; ; pass++ {
		sp := e.tr.start(e.root, "bench", "pass", "")
		for _, i := range order(rng, len(s.cells)) {
			if pass >= e.minUnits && time.Since(start) >= budget {
				e.tr.end(sp)
				break passes
			}
			e.cal.tick()
			c := s.cells[i]
			call := e.tr.start(sp, "harness", "harness.Run", c.id())
			t := startTimed()
			res, err := harness.Run(c.prog, c.kind, harness.Options{})
			t.stop()
			e.tr.end(call)

			m.attempted++
			if why := s.exp.check(c, res, err); why != "" {
				m.fail(why)
				if err != nil {
					continue
				}
			}
			switch {
			case first[i] == nil:
				first[i] = res
			case cellLine("", res) != cellLine("", first[i]):
				m.fail(c.id() + ": simulated statistics differ between two runs of the same cell")
			}
			samples[i] = append(samples[i], t)
		}
		e.tr.end(sp)
	}
	e.cal.slice()
	// Per-cell medians, summed: one slow sample of one cell moves nothing.
	var sumWall, sumPlain, sumCPU, sumMallocs, sumInstrs float64
	var perInstr []float64
	kindWall, kindInstrs := map[harness.VMKind]float64{}, map[harness.VMKind]float64{}
	for i, c := range s.cells {
		if first[i] == nil {
			continue
		}
		wall, cpu, plain, mallocs := costs(samples[i], e.cal)
		med, n := median(wall), float64(first[i].Instrs)
		m.opNs = append(m.opNs, med)
		sumWall += med
		sumPlain += median(plain)
		sumCPU += median(cpu)
		sumMallocs += median(mallocs)
		sumInstrs += n
		perInstr = append(perInstr, med/n)
		kindWall[c.kind] += med
		kindInstrs[c.kind] += n
		m.sim.add(c.id(), first[i])
	}
	m.wallNsPerInstr = ratio(sumWall, sumInstrs)
	m.gmeanNsPerInstr = gmean(perInstr)
	m.plainNsPerInstr = ratio(sumPlain, sumInstrs)
	m.cpuNsPerInstr = ratio(sumCPU, sumInstrs)
	m.allocsPerKinstr = ratio(sumMallocs, sumInstrs/1000)
	for name, k := range map[string]harness.VMKind{
		"pylang.reference_ns_per_sim_instr": harness.VMCPython,
		"pylang.interp_ns_per_sim_instr":    harness.VMPyPyNoJIT,
		"sklang.racket_ns_per_sim_instr":    harness.VMRacket,
		"sklang.pycket_ns_per_sim_instr":    harness.VMPycket,
		"static.c_ns_per_sim_instr":         harness.VMC,
	} {
		m.layer[name] = ratio(kindWall[k], kindInstrs[k])
	}
	return m, nil
}
