package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestQuantiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := quantile(seq(101), 0.9); got != 91 {
		t.Errorf("p90 of 1..101 = %v, want 91", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

// The tail percentile is only reported where ten samples lie beyond it.
func TestTailQuantileTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantQ float64
	}{
		{1000, 0.90}, // 100 beyond
		{100, 0.90},  // exactly 10 beyond
		{50, 0.80},   // p90 would leave 5: fall to the one that leaves 10
		{20, 0.50},   // never below the median
		{2, 0.50},
	} {
		v, q := tailQuantile(seq(c.n), 0.90)
		if math.Abs(q-c.wantQ) > 1e-9 {
			t.Errorf("n=%d: reported quantile %v, want %v", c.n, q, c.wantQ)
		}
		if want := quantile(seq(c.n), c.wantQ); v != want {
			t.Errorf("n=%d: value %v, want %v", c.n, v, want)
		}
		if beyond := float64(c.n) * (1 - q); q > 0.5 && beyond < tailBeyond-1e-9 {
			t.Errorf("n=%d: only %v samples beyond p%v", c.n, beyond, q*100)
		}
	}
}

func TestGmeanAndRatio(t *testing.T) {
	if got := gmean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("gmean(1,100) = %v, want 10", got)
	}
	if got := gmean(nil); got != 0 {
		t.Errorf("gmean of nothing = %v, want 0", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1,0) = %v, want 0", got)
	}
}
