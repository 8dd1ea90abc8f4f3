package harness

import (
	"bytes"
	"sync"
	"testing"

	"metajit/internal/bench"
)

// TestParallelRecordingDeterministic runs recorded cells through bare
// harness.Run on a bounded goroutine pool and compares every trace
// against a serial (width 1) run: the recordings must be byte-identical.
// This is both the recorder's race test (under `make race` the pool
// exercises concurrent recording) and the determinism contract that
// makes committed fixtures meaningful — a recording must not depend on
// scheduling.
func TestParallelRecordingDeterministic(t *testing.T) {
	benches := []string{"telco", "nbody", "binarytrees"}
	kinds := []VMKind{VMPyPyJIT, VMPyPyTiered}

	runAll := func(workers int) map[string]*Result {
		out := map[string]*Result{}
		var mu sync.Mutex
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for _, b := range benches {
			for _, k := range kinds {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sem <- struct{}{}
					defer func() { <-sem }()
					res, err := Run(bench.ByName(b), k, Options{Record: true})
					if err != nil {
						t.Errorf("%s/%s: %v", b, k, err)
						return
					}
					if res.Trace == nil {
						t.Errorf("%s/%s: no trace recorded", b, k)
						return
					}
					mu.Lock()
					out[b+"/"+string(k)] = res
					mu.Unlock()
				}()
			}
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		return out
	}

	serial := runAll(1)
	parallel := runAll(4)
	for cell, want := range serial {
		got := parallel[cell]
		if !bytes.Equal(got.Trace.Encode(), want.Trace.Encode()) {
			t.Errorf("%s: parallel recording differs from serial", cell)
		}
		if got.Trace.Hash() != want.Trace.Hash() {
			t.Errorf("%s: content hash differs across worker counts", cell)
		}
	}

	// Alloc replay through the parallel Runner: replayed cells must be
	// scheduling-independent too (the replayer's root table is ordered,
	// not map-iterated — this breaks if that ever regresses).
	tp := bench.FromTrace(serial["telco/pypy"].Trace)
	r := NewRunner(4)
	r.Prefetch(&tp, VMPyPyJIT, Options{ReplayAlloc: true})
	r.Prefetch(&tp, VMPyPyJIT, Options{})
	rr, err := r.Get(&tp, VMPyPyJIT, Options{ReplayAlloc: true})
	if err != nil {
		t.Fatal(err)
	}
	if rr.GC.Minor == 0 {
		t.Error("alloc replay of telco recording drove no minor GC")
	}
	rd, err := r.Get(&tp, VMPyPyJIT, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rd.Checksum != serial["telco/pypy"].Checksum {
		t.Errorf("guest re-drive checksum %d, recorded run %d", rd.Checksum, serial["telco/pypy"].Checksum)
	}
}
