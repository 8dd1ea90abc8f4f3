package harness

import (
	"fmt"
	"runtime"
	"sync"

	"metajit/internal/bench"
)

// Runner memoizes and parallelizes experiment cells. Each distinct
// (benchmark, VM, options) cell — see Spec — is simulated exactly once
// per Runner, on a worker pool bounded at the configured width; every
// table and figure that needs the cell shares the one result. Cells are
// independent simulations (each Run builds its own cpu.Machine, VM, and
// heap), so running them on separate goroutines shares no simulator
// state. Failures stay per-cell: a failed cell renders as ERR in the
// table that wanted it, and the errors are collected for an end-of-run
// summary instead of panicking mid-table. A Runner takes only cells:
// Options that ask for an artifact or set Guest are refused (lookup).
type Runner struct {
	sem chan struct{}

	mu     sync.Mutex
	cells  map[Spec]*cell
	order  []*cell
	failed []error
	stats  CacheStats

	// simulate is the cell executor; tests swap it to count or fake
	// simulations.
	simulate func(*bench.Program, VMKind, Options) (*Result, error)
	simCount int
}

// cell is one memoized simulation. It holds the Spec and the outcome, not
// the Options it ran under: their sinks (Observe) belong to the call that
// caused the run — a later hit feeds none — and a memo that kept them
// would pin, for one, every cold request's span tree.
type cell struct {
	key  Spec
	done chan struct{}
	res  *Result
	err  error
}

// NewRunner returns a Runner whose pool runs up to workers cells
// concurrently; workers <= 0 means runtime.NumCPU().
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Runner{
		sem:      make(chan struct{}, workers),
		cells:    map[Spec]*cell{},
		simulate: Run,
	}
}

// Prefetch schedules a cell on the pool and returns immediately. The
// experiment renderers prefetch every cell they will format before the
// first blocking Get, so distinct cells simulate concurrently while
// output stays in insertion order regardless of completion order.
func (r *Runner) Prefetch(p *bench.Program, kind VMKind, opt Options) {
	r.lookup(p, kind, opt)
}

// Get returns the memoized result for a cell, scheduling it first if no
// table has asked for it yet, and blocks until it is done.
func (r *Runner) Get(p *bench.Program, kind VMKind, opt Options) (*Result, error) {
	c := r.lookup(p, kind, opt)
	<-c.done
	return c.res, c.err
}

func (r *Runner) lookup(p *bench.Program, kind VMKind, opt Options) *cell {
	key, obs := opt.split(p, kind)
	r.mu.Lock()
	defer r.mu.Unlock()
	if obs.Guest != nil || obs.ProfileWindow != 0 || obs.Record {
		// Not in the Spec: the seam changes the run, and an artifact
		// belongs to the call that asked; a memo would share either.
		c := &cell{key: key, done: make(chan struct{}),
			err: fmt.Errorf("%s: a Runner does not take Options.%s", key, refused(opt))}
		close(c.done)
		r.order = append(r.order, c)
		return c
	}
	r.stats.Requests++
	if c, ok := r.cells[key]; ok {
		r.stats.Hits++
		return c
	}
	r.stats.Misses++
	c := &cell{key: key, done: make(chan struct{})}
	r.cells[key] = c
	r.order = append(r.order, c)
	go r.runCell(c, p, kind, opt)
	return c
}

// refused names the Options field a Runner does not take.
func refused(opt Options) string {
	switch {
	case opt.Guest != nil:
		return "Guest"
	case opt.Profile:
		return "Profile"
	case opt.ProfileDir != "":
		return "ProfileDir"
	case opt.Record:
		return "Record"
	default:
		return "RecordDir"
	}
}

func (r *Runner) runCell(c *cell, p *bench.Program, kind VMKind, opt Options) {
	r.sem <- struct{}{}
	defer func() { <-r.sem }()
	defer close(c.done)
	// A cell failure — including a guest-level panic deep in a simulated
	// VM — must not take down the other cells' goroutines with it.
	defer func() {
		if v := recover(); v != nil {
			c.err = fmt.Errorf("%s: panic: %v", c.key, v)
		}
	}()
	if p == nil {
		c.err = fmt.Errorf("%s: unknown benchmark", c.key)
		return
	}
	r.mu.Lock()
	r.simCount++
	sim := r.simulate
	r.mu.Unlock()
	res, err := sim(p, kind, opt)
	if err != nil {
		err = fmt.Errorf("%s: %w", c.key, err)
	}
	c.res, c.err = res, err
}

// Fail records a failure found outside cell execution (e.g. a checksum
// mismatch between cells); the run continues, and the error surfaces in
// Errs for the end-of-run summary.
func (r *Runner) Fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed = append(r.failed, err)
}

// Errs returns every error seen so far: failed cells in insertion order,
// then explicitly reported failures. Cells still in flight are skipped,
// so call it after rendering (every Get has returned by then).
func (r *Runner) Errs() []error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var errs []error
	for _, c := range r.order {
		select {
		case <-c.done:
			if c.err != nil {
				errs = append(errs, c.err)
			}
		default:
		}
	}
	return append(errs, r.failed...)
}

// Simulations returns how many cells were actually simulated (cache
// misses); requests minus simulations is the memoization win.
func (r *Runner) Simulations() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.simCount
}

// TotalSimInstrs sums the simulated retired-instruction counts over
// every completed, successful cell — the denominator for host-side
// ns/simulated-instruction measurements (benchmark/regen.go). Cells
// still in flight are skipped; call it after rendering.
func (r *Runner) TotalSimInstrs() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t uint64
	for _, c := range r.order {
		select {
		case <-c.done:
			if c.res != nil {
				t += c.res.Instrs
			}
		default:
		}
	}
	return t
}

// SetSimulate replaces the cell executor. Intended for tests that need
// deterministic or blocking fakes; call before any cells are scheduled.
func (r *Runner) SetSimulate(fn func(*bench.Program, VMKind, Options) (*Result, error)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.simulate = fn
}

// CacheStats summarizes the runner's memoization behavior.
type CacheStats struct {
	Requests int // cell lookups (Get and Prefetch)
	Hits     int // lookups served by an existing cell
	Misses   int // lookups that scheduled a fresh simulation
}

// HitRate returns Hits/Requests, 0 when no requests were made.
func (s CacheStats) HitRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Requests)
}

// CacheStats returns a snapshot of the memo cache counters.
func (r *Runner) CacheStats() CacheStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}
