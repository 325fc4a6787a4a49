package main

import (
	"slices"
	"sort"
)

// pct returns the q-quantile (0..1) of samples by the nearest-rank rule;
// samples are sorted in place.
func pct(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	i := int(q*float64(len(samples))+0.5) - 1
	return samples[min(max(i, 0), len(samples)-1)]
}

// median of float64 values (not modified).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns Q1, median and Q3 exactly as Python's
// statistics.quantiles(values, n=4) computes them (its default
// "exclusive" method), so the spreads printed here are the ones a check
// in Python would see.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
