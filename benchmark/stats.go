package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0..1) of an ascending slice by linear
// interpolation between order statistics; 0 for an empty slice.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to repeat from run to run.
const tailBeyond = 10

// tailQuantile returns the q-quantile of an ascending slice when at least
// tailBeyond samples lie beyond it, and otherwise the highest quantile that
// has tailBeyond samples beyond it, never below the median. The second
// result is the quantile actually reported.
func tailQuantile(s []float64, q float64) (float64, float64) {
	n := len(s)
	if n == 0 {
		return 0, q
	}
	if maxQ := 1 - float64(tailBeyond)/float64(n); q > maxQ {
		q = math.Max(maxQ, 0.5)
	}
	return quantile(s, q), q
}

// gmean is the geometric mean of positive values; 0 for an empty slice.
func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, and 0 when b is 0, so that a layer a workload never
// exercised reads 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
