package main

import (
	"math"
	"testing"
)

func TestSelfTimeNested(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "harness", Start: 10, End: 60},
		{ID: 3, Parent: 2, Layer: "cpu", Start: 20, End: 30},
		{ID: 4, Parent: 1, Layer: "harness", Start: 70, End: 90},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 30, 2: 40, 3: 10, 4: 20} {
		if self[id] != want {
			t.Errorf("span %d: self %d, want %d", id, self[id], want)
		}
	}
	by := selfByLayer(spans) // in ms
	for layer, wantNs := range map[string]float64{"harness": 60, "bench": 30, "cpu": 10} {
		if math.Abs(by[layer]*1e6-wantNs) > 1e-6 {
			t.Errorf("layer %s: self %v ms, want %v ns", layer, by[layer], wantNs)
		}
	}
}

// Concurrent children overlap; their union is what they cover, and a child
// that outlives its parent is clipped to it.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 50},
		{ID: 3, Parent: 1, Start: 30, End: 70},  // overlaps 2
		{ID: 4, Parent: 1, Start: 35, End: 40},  // inside both
		{ID: 5, Parent: 1, Start: 90, End: 130}, // outlives the parent
	}
	if got := selfTimes(spans)[1]; got != 100-60-10 {
		t.Errorf("parent self = %d, want 30", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.start(0, "bench", "x", "")
	tr.end(id)
	if id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
}
