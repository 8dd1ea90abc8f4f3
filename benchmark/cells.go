package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"

	"metajit/internal/bench"
	"metajit/internal/core"
	"metajit/internal/harness"
)

// cell is one (benchmark, VM kind) simulation.
type cell struct {
	prog *bench.Program
	kind harness.VMKind
}

func (c cell) id() string { return c.prog.Name + "/" + string(c.kind) }

// guest names the language whose reference interpreter defines the cell's
// expected checksum. Static kernels compute the Python guest's answer.
func (c cell) guest() string {
	if c.kind == harness.VMRacket || c.kind == harness.VMPycket {
		return "sk"
	}
	return "py"
}

// A run has to see every cell about six times for the per-cell median to
// shrug off the machine's stalls, so a pass may take about 3 s. The longest
// cells are left out; the loops they would exercise are the same.
var (
	// over 40 M simulated instructions under cpython or racket
	tooLongInterpreted = map[string]bool{
		"crypto_pyaes": true, "chaos": true, "spectral_norm": true, "hexiom2": true,
		"mandelbrot": true, "spectralnorm": true,
	}
	// over 40 M more under pypy-nojit, which retires twice the instructions
	tooLongNoJIT = map[string]bool{"richards": true, "fannkuch": true, "meteor_contest": true}
	// over 15 M under a JIT kind
	tooLongJIT = map[string]bool{"crypto_pyaes": true, "hexiom2": true, "binarytrees": true, "fannkuch": true}
)

func cross(progs []bench.Program, kinds []harness.VMKind, keep func(*bench.Program) bool) []cell {
	var out []cell
	for i := range progs {
		p := &progs[i]
		if keep != nil && !keep(p) {
			continue
		}
		for _, k := range kinds {
			out = append(out, cell{p, k})
		}
	}
	return out
}

func interpCells() []cell {
	short := func(p *bench.Program) bool { return !tooLongInterpreted[p.Name] }
	cells := cross(bench.PyPySuite(), []harness.VMKind{harness.VMCPython}, short)
	cells = append(cells, cross(bench.PyPySuite(), []harness.VMKind{harness.VMPyPyNoJIT},
		func(p *bench.Program) bool { return short(p) && !tooLongNoJIT[p.Name] })...)
	cells = append(cells, cross(bench.CLBG(), []harness.VMKind{harness.VMRacket},
		func(p *bench.Program) bool { return p.SkSource != "" && short(p) })...)
	return append(cells, cross(bench.All(), []harness.VMKind{harness.VMC},
		func(p *bench.Program) bool { return p.Static })...)
}

var jitKinds = []harness.VMKind{harness.VMPyPyJIT, harness.VMPyPyTiered, harness.VMPyPyAmalg, harness.VMPyPyAdaptive}

func jitCells() []cell {
	short := func(p *bench.Program) bool { return !tooLongJIT[p.Name] }
	cells := cross(bench.PyPySuite(), jitKinds, short)
	return append(cells, cross(bench.CLBG(), []harness.VMKind{harness.VMPycket},
		func(p *bench.Program) bool { return p.SkSource != "" && short(p) })...)
}

// serveCells is the universe serve_mix draws requests from. The oracle
// simulates all of it in every set-up, so the two longest JIT cells and all
// but six short reference-interpreter cells are left out.
func serveCells() []cell {
	cells := cross(bench.PyPySuite(), []harness.VMKind{harness.VMPyPyJIT, harness.VMPyPyTiered},
		func(p *bench.Program) bool { return !tooLongJIT[p.Name] })
	for _, name := range []string{"telco", "django", "bm_mako", "pyflate_fast", "json_bench", "html5lib"} {
		cells = append(cells, cell{bench.ByName(name), harness.VMCPython})
	}
	return cells
}

// observerCells is the fixed set the attached÷detached ratios and the
// per-tier rows are measured on: one cell per execution regime.
func observerCells() []cell {
	return []cell{
		{bench.ByName("richards"), harness.VMCPython},
		{bench.ByName("raytrace_simple"), harness.VMPyPyNoJIT},
		{bench.ByName("richards"), harness.VMPyPyTiered},
		{bench.ByName("crypto_pyaes"), harness.VMPyPyJIT},
	}
}

// warmupCells is one short cell per VM kind among cells.
func warmupCells(cells []cell) []cell {
	var out []cell
	seen := map[harness.VMKind]bool{}
	for _, c := range cells {
		if seen[c.kind] {
			continue
		}
		seen[c.kind] = true
		name := "telco"
		if c.guest() == "sk" || c.kind == harness.VMC {
			name = "fasta" // telco has no Scheme source and no static kernel
		}
		out = append(out, cell{bench.ByName(name), c.kind})
	}
	return out
}

// order returns a permutation of n cell indexes drawn from rng: the seed
// changes the order in which cells run, never which cells run.
func order(rng *rand.Rand, n int) []int { return rng.Perm(n) }

// expectations maps guest language and benchmark name to the checksum the
// reference interpreter (cpython, racket) returned when it was recorded.
type expectations map[string]map[string]int64

const expectedPath = "benchmark/expected/checksums.json"

func loadExpectations() (expectations, error) { return loadExpectationsFrom(expectedPath) }

func loadExpectationsFrom(path string) (expectations, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e expectations
	if err := json.Unmarshal(blob, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return e, nil
}

// check reports why res is not the expected answer for c, or "".
func (e expectations) check(c cell, res *harness.Result, err error) string {
	if err != nil {
		return fmt.Sprintf("%s: %v", c.id(), err)
	}
	want, ok := e[c.guest()][c.prog.Name]
	if !ok {
		return fmt.Sprintf("%s: no expected checksum", c.id())
	}
	if res.Checksum != want {
		return fmt.Sprintf("%s: checksum %d, want %d", c.id(), res.Checksum, want)
	}
	return ""
}

// recordExpectations runs every program once under its guest's reference
// interpreter and writes the checksums.
func recordExpectations() error {
	e := expectations{"py": {}, "sk": {}}
	for _, p := range bench.All() {
		p := p
		for guest, kind := range map[string]harness.VMKind{"py": harness.VMCPython, "sk": harness.VMRacket} {
			if (guest == "py" && p.Source == "") || (guest == "sk" && p.SkSource == "") {
				continue
			}
			res, err := harness.Run(&p, kind, harness.Options{})
			if err != nil {
				return err
			}
			e[guest][p.Name] = res.Checksum
		}
	}
	blob, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath, append(blob, '\n'), 0o644)
}

// simStats sums the simulated statistics of a set of results. They are
// exact: a change that only makes the host faster must leave every field,
// and the hash, as they were.
type simStats struct {
	cells       int
	instrs      uint64
	cycles      float64
	l1Miss      uint64
	mispredicts uint64
	minorGCs    uint64
	majorGCs    uint64
	promoted    uint64
	phaseInstrs [core.NumPhases]uint64

	loops, bridges, aborts  int
	opsRecorded, opsRemoved int
	guardFailures, deopts   uint64
	baselines, methods      int
	lines                   []string // one per cell, hashed in sorted order
}

func (s *simStats) add(id string, r *harness.Result) {
	s.cells++
	s.instrs += r.Instrs
	s.cycles += r.Cycles
	s.l1Miss += r.Total.L1Miss
	s.mispredicts += r.Total.Mispredicts()
	s.minorGCs += r.GC.Minor
	s.majorGCs += r.GC.Major
	s.promoted += r.GC.PromotedBytes
	for p := range r.Phases {
		s.phaseInstrs[p] += r.Phases[p].Instrs
	}
	e := r.EngStats
	s.loops += e.LoopsCompiled
	s.bridges += e.BridgesCompiled
	s.aborts += e.Aborts
	s.opsRecorded += e.OpsRecorded
	s.opsRemoved += e.OpsRemoved
	s.guardFailures += e.GuardFailures
	s.deopts += e.BaselineDeopts + e.MethodDeopts
	s.baselines += e.BaselinesCompiled
	s.methods += e.MethodsCompiled
	s.lines = append(s.lines, cellLine(id, r))
}

// cellLine is the per-cell record the fingerprint hashes.
func cellLine(id string, r *harness.Result) string {
	return fmt.Sprintf("%s %d %x %d %x", id, r.Instrs, math.Float64bits(r.Cycles), r.Checksum, r.HeapChecksum)
}

// fingerprint hashes the per-cell records in cell order, so it does not
// depend on the order the seed ran them in.
func (s *simStats) fingerprint() string {
	lines := append([]string(nil), s.lines...)
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// layerCounts reports the exact simulated counts as per-layer metrics.
func (s *simStats) layerCounts(m map[string]float64) {
	m["cpu.sim_instrs"] = float64(s.instrs)
	m["cpu.sim_cycles"] = s.cycles
	m["cpu.sim_l1_miss"] = float64(s.l1Miss)
	m["cpu.sim_mispredicts"] = float64(s.mispredicts)
	m["heap.minor_gcs"] = float64(s.minorGCs)
	m["heap.major_gcs"] = float64(s.majorGCs)
	m["heap.promoted_bytes"] = float64(s.promoted)
	m["mtjit.loops_compiled"] = float64(s.loops)
	m["mtjit.bridges_compiled"] = float64(s.bridges)
	m["mtjit.aborts"] = float64(s.aborts)
	m["mtjit.abort_share"] = ratio(float64(s.aborts), float64(s.loops+s.bridges+s.aborts))
	m["mtjit.ops_recorded"] = float64(s.opsRecorded)
	m["mtjit.ops_removed_share"] = ratio(float64(s.opsRemoved), float64(s.opsRecorded))
	m["mtjit.guard_failures"] = float64(s.guardFailures)
	m["mtjit.baselines_compiled"] = float64(s.baselines)
	m["mtjit.methods_compiled"] = float64(s.methods)
	m["mtjit.deopts"] = float64(s.deopts)
	for name, p := range map[string]core.Phase{
		"interp": core.PhaseInterp, "tracing": core.PhaseTracing, "jit": core.PhaseJIT,
		"blackhole": core.PhaseBlackhole, "baseline": core.PhaseBaseline, "method": core.PhaseMethod,
	} {
		m["mtjit.sim_share_"+name] = ratio(float64(s.phaseInstrs[p]), float64(s.instrs))
	}
}
