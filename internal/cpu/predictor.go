package cpu

// gshare is a global-history two-bit-counter conditional branch predictor.
// When bits == 0 it degrades to static predict-not-taken: one counter,
// pinned at 0 by an all-zero transition table, so the static and the
// dynamic predictor run the same branch-free update.
type gshare struct {
	table   []uint8 // 2-bit saturating counters
	history uint64
	mask    uint64
	hmask   uint64
	// next[taken][ctr] is a counter's value after an outcome.
	next [2][4]uint8
}

// saturate is the two-bit counter's transition table: down on not
// taken, up on taken, saturating at 0 and 3.
var saturate = [2][4]uint8{{0, 0, 1, 2}, {1, 2, 3, 3}}

func newGShare(bits, history uint) gshare {
	if bits == 0 {
		return gshare{table: make([]uint8, 1)}
	}
	g := gshare{table: make([]uint8, 1<<bits), next: saturate}
	for i := range g.table {
		g.table[i] = 1 // weakly not-taken
	}
	g.mask = uint64(len(g.table) - 1)
	g.hmask = (1 << history) - 1
	return g
}

// predict returns the prediction for the branch at pc and updates state
// with the actual outcome, reporting whether the prediction was correct.
func (g *gshare) predict(pc uint64, taken bool) (correct bool) {
	t := b2u(taken)
	ctr := &g.table[((pc>>2)^g.history)&g.mask]
	c := *ctr
	*ctr = g.next[t][c&3]
	g.history = ((g.history << 1) | t) & g.hmask
	return (c >= 2) == taken
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// btb is a direct-mapped branch target buffer predicting indirect-branch
// targets by last target seen. An entry keeps its tag beside its target,
// so a prediction touches one host cache line, not two.
type btb struct {
	entries []btbEntry
	mask    uint64
}

type btbEntry struct{ tag, target uint64 }

func newBTB(bits uint) btb {
	n := 1 << bits
	return btb{entries: make([]btbEntry, n), mask: uint64(n - 1)}
}

// predict looks up pc, reports whether the stored target matches the actual
// target, and updates the entry.
func (b *btb) predict(pc, target uint64) (correct bool) {
	e := &b.entries[(pc>>2)&b.mask]
	correct = e.tag == pc && e.target == target
	e.tag, e.target = pc, target
	return correct
}

// ras is a return-address stack modeled as a ring buffer. Calls push a
// synthetic return address; returns pop and are predicted correctly if
// the stack is non-empty. Overflow overwrites the oldest entry in O(1)
// — the prior slice model shifted the whole stack on every deep push.
// Depth zero predicts every return wrong (no RAS at all).
type ras struct {
	buf  []uint64
	head int // next push slot
	n    int // live entries, <= len(buf)
}

func newRAS(depth int) ras {
	if depth < 0 {
		depth = 0
	}
	return ras{buf: make([]uint64, depth)}
}

func (r *ras) push(addr uint64) {
	if len(r.buf) == 0 {
		return
	}
	r.buf[r.head] = addr
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	if r.n < len(r.buf) {
		r.n++
	}
}

// pop returns whether the return was predicted (stack non-empty). Deep
// recursion past RASDepth shows up as return mispredictions, as on real
// hardware.
func (r *ras) pop() (correct bool) {
	if r.n == 0 {
		return false
	}
	r.n--
	if r.head == 0 {
		r.head = len(r.buf)
	}
	r.head--
	return true
}
