package main

import (
	"math/rand"
	"sort"
	"time"
)

// The machines this benchmark runs on share their last-level cache with
// other tenants, and the simulator's working set lives in that cache: its
// host time swings by tens of percent for tens of seconds at a time while
// an ALU-bound loop on the same core barely moves. A reference kernel with
// the same sensitivity — a dependent-load chase over 4 MB — runs between
// operations, and every host time is reported in reference nanoseconds:
// the measured time × (refNominalNs ÷ what the kernel took around then).
// README.md has the measurements behind this.
const (
	refEntries   = 1 << 20 // 4 MB of uint32: past L2, inside L3
	refHops      = 150_000 // walked twice: once to bring the lines in, once timed
	refNominalNs = 45.0 * refHops
	refEvery     = 400 * time.Millisecond
	refWindow    = 4 * time.Second
	refAtLeast   = 3 // slices a scale is taken from
	// refAround is how many slices run before and after an operation that is
	// too long, or too parallel, to tick inside.
	refAround = 10
)

// calibrator runs reference slices and scales durations by them. It is used
// from one goroutine, while no operation is in flight.
type calibrator struct {
	chain []uint32
	last  time.Time
	at    []time.Time // when each slice ran
	ns    []float64   // how long it took
}

func newCalibrator() *calibrator {
	perm := rand.New(rand.NewSource(1)).Perm(refEntries)
	c := &calibrator{chain: make([]uint32, refEntries)}
	for i, p := range perm {
		c.chain[p] = uint32(perm[(i+1)%refEntries])
	}
	return c
}

// slice runs the reference kernel once.
func (c *calibrator) slice() {
	// What ran before decides how much of the chain is still cached, so
	// the same walk runs twice and the second is timed.
	i := uint32(0)
	for k := 0; k < refHops; k++ {
		i = c.chain[i]
	}
	sink += uint64(i)
	i = 0
	t0 := time.Now()
	for k := 0; k < refHops; k++ {
		i = c.chain[i]
	}
	sink += uint64(i)
	c.last = time.Now()
	c.at = append(c.at, t0)
	c.ns = append(c.ns, float64(c.last.Sub(t0).Nanoseconds()))
}

// tick runs a slice if the last one is refEvery old: call it between
// operations.
func (c *calibrator) tick() {
	if time.Since(c.last) >= refEvery {
		c.slice()
	}
}

// burst runs n slices: call it around a long operation that leaves no room
// for ticks inside.
func (c *calibrator) burst(n int) {
	for i := 0; i < n; i++ {
		c.slice()
	}
}

// scale returns the factor that turns a duration measured between a and b
// into reference nanoseconds: refNominalNs over the median of the slices
// within refWindow of the interval, or of the refAtLeast nearest ones.
func (c *calibrator) scale(a, b time.Time) float64 {
	lo := sort.Search(len(c.at), func(i int) bool { return !c.at[i].Before(a.Add(-refWindow)) })
	hi := sort.Search(len(c.at), func(i int) bool { return c.at[i].After(b.Add(refWindow)) })
	for hi-lo < refAtLeast && (lo > 0 || hi < len(c.at)) {
		// Widen toward whichever neighbour is nearer in time.
		switch {
		case lo == 0:
			hi++
		case hi == len(c.at):
			lo--
		case a.Sub(c.at[lo-1]) <= c.at[hi].Sub(b):
			lo--
		default:
			hi++
		}
	}
	if hi == lo {
		return 1
	}
	return refNominalNs / median(c.ns[lo:hi])
}
