package harness

import (
	"fmt"
	"runtime"
	"sync"
	"time"

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
// summary instead of panicking mid-table.
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
	key := Key(p, kind, opt)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Requests++
	if c, ok := r.cells[key]; ok {
		r.stats.Hits++
		if m := telem(); m != nil {
			m.hits.Inc()
		}
		return c
	}
	r.stats.Misses++
	if m := telem(); m != nil {
		m.misses.Inc()
	}
	c := &cell{key: key, done: make(chan struct{})}
	r.cells[key] = c
	r.order = append(r.order, c)
	go r.runCell(c, p, kind, opt)
	return c
}

// Evict removes a completed cell from the memo cache so the next
// request re-simulates it; it reports whether a cell was evicted. A
// cell still in flight is left alone (false): the running simulation is
// already as fresh as a re-run would be, and the caller's Get will join
// it. Evicted cells stay in the insertion-order history, so errors they
// produced remain visible to Errs.
func (r *Runner) Evict(p *bench.Program, kind VMKind, opt Options) bool {
	key := Key(p, kind, opt)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.cells[key]
	if !ok {
		return false
	}
	select {
	case <-c.done:
	default:
		return false
	}
	delete(r.cells, key)
	r.stats.Evictions++
	if m := telem(); m != nil {
		m.evictions.Inc()
	}
	return true
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
	m := telem()
	m.inflight().Inc()
	start := time.Now()
	res, err := sim(p, kind, opt)
	m.latencyHist().Observe(uint64(time.Since(start).Microseconds()))
	m.inflight().Dec()
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

// Peek returns the result of a cell that is memoized, finished and
// succeeded, or nil; it never schedules a simulation and never blocks.
// A non-nil answer counts as one request and one hit, exactly as the Get
// it stands in for would have; nil counts nothing — the caller's
// follow-up Get does. A failed cell answers nil so that Get reports its
// memoized error.
func (r *Runner) Peek(p *bench.Program, kind VMKind, opt Options) *Result {
	key := Key(p, kind, opt)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.cells[key]
	if !ok {
		return nil
	}
	select {
	case <-c.done:
	default:
		return nil
	}
	if c.err != nil {
		return nil
	}
	r.stats.Requests++
	r.stats.Hits++
	if m := telem(); m != nil {
		m.hits.Inc()
	}
	return c.res
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
	Requests  int // cell lookups (Get, Prefetch, and each Peek that found its cell)
	Hits      int // lookups served by an existing cell
	Misses    int // lookups that scheduled a fresh simulation
	Evictions int // cells explicitly evicted for re-simulation
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
