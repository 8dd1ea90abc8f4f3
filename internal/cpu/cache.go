package cpu

// cache is a direct-mapped cache model tracking only hit/miss (no data).
// lines[set] holds the resident block number plus one, 0 meaning the set
// is empty: tag and valid bit share a word so an access touches one host
// cache line, not two. (Lines are at least 8 bytes, so block+1 cannot
// wrap.)
type cache struct {
	lines []uint64
	mask  uint64
	shift uint
}

// newCache builds a direct-mapped cache from a geometry that has gone
// through Params.Normalized: line a power of two and set count a nonzero
// power of two, so set selection is a shift and a mask instead of a
// divide. The panic guards against a caller bypassing normalization —
// the pre-mask model silently aliased sets on non-power-of-two counts
// and divided by zero when size < line.
func newCache(size, line int) cache {
	sets := size / line
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("cpu: cache geometry not normalized (sets must be a nonzero power of two)")
	}
	sh := uint(0)
	for 1<<sh < line {
		sh++
	}
	return cache{
		lines: make([]uint64, sets),
		mask:  uint64(sets - 1),
		shift: sh,
	}
}

// access touches addr and reports whether it hit.
func (c *cache) access(addr uint64) (hit bool) {
	block := addr >> c.shift
	line := &c.lines[block&c.mask]
	if *line == block+1 {
		return true
	}
	*line = block + 1
	return false
}
