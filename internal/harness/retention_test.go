//go:build !race

// The retention tests simulate the PyPy suite four times, which the race
// detector makes ~10x slower, so `make race` skips this file as it skips
// the allocation guards.

package harness

import (
	"runtime"
	"testing"

	"metajit/internal/bench"
)

// liveHeap is the heap in use after two collections; the second frees
// what the first one's finalizers and sweeps released.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// retainedKB simulates the PyPy suite on one VM through a fresh Runner
// and returns the live heap the memo holds afterwards, per cell.
func retainedKB(t *testing.T, kind VMKind, opt Options) float64 {
	t.Helper()
	progs := bench.PyPySuite()
	r := NewRunner(0)
	base := liveHeap()
	for i := range progs {
		r.Prefetch(&progs[i], kind, opt)
	}
	for i := range progs {
		if _, err := r.Get(&progs[i], kind, opt); err != nil {
			t.Fatal(err)
		}
	}
	held := liveHeap()
	runtime.KeepAlive(r)
	return (float64(held) - float64(base)) / 1024 / float64(len(progs))
}

// TestMemoizedCellRetention bounds what a memoized default cell keeps
// alive. Before Result was a value a pypy cell held ~1060 KB (every
// trace, its predecoded code and the guest objects its constants reach,
// behind Result.Log) and a cpython cell ~224 KB (the machine, behind an
// AOTAttributor field nothing read) for ~3 KB of numbers.
func TestMemoizedCellRetention(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the PyPy suite twice")
	}
	for _, kind := range []VMKind{VMPyPyJIT, VMCPython} {
		if kb := retainedKB(t, kind, Options{}); kb > 32 {
			t.Errorf("%s: a memoized cell retains %.1f KB of live heap, want <= 32", kind, kb)
		} else {
			t.Logf("%s: %.1f KB retained per memoized cell", kind, kb)
		}
	}
}

// TestProfiledCellRetention is the same bound for the artifact a caller
// asks for: a finished profiler keeps its flame weights and its series
// (576 B per 64 Ki-instruction window, so the longer cpython runs hold
// more), not the machine and guest VM it watched (~1160 KB pypy,
// ~1300 KB cpython before Profiler.Finish let go of them).
func TestProfiledCellRetention(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the PyPy suite twice")
	}
	for _, kind := range []VMKind{VMPyPyJIT, VMCPython} {
		kb := retainedKB(t, kind, Options{Profile: true})
		t.Logf("%s: %.1f KB retained per profiled cell", kind, kb)
		if kb > 512 {
			t.Errorf("%s: a profiled cell retains %.1f KB of live heap, want <= 512", kind, kb)
		}
	}
}
