package main

import (
	"math"
	"sort"
)

// summary describes one metric's samples: the median, the quartiles, and
// the highest percentile that has at least ten samples beyond it.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// TailPct is the highest of tailPercentiles with at least ten samples
	// beyond it (0 when there are too few samples for any); Tail is the
	// value at that percentile.
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

// tailPercentiles are the percentiles a summary may report as its tail,
// highest first, each with the share of samples beyond it in thousandths.
var tailPercentiles = []struct {
	p      float64
	beyond int
}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}, {75, 250}, {50, 500}}

func summarize(samples []float64) summary {
	xs := sorted(samples)
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Median = median(xs)
	s.Q1, s.Q3 = quartiles(xs)
	if p := tailPercentile(len(xs)); p > 0 {
		s.TailPct, s.Tail = p, percentile(xs, p)
	}
	return s
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func sorted(samples []float64) []float64 {
	xs := append([]float64(nil), samples...)
	sort.Float64s(xs)
	return xs
}

// median of sorted xs.
func median(xs []float64) float64 {
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles of sorted xs by the exclusive method, as Python's
// statistics.quantiles(xs, n=4) computes them, so the quartiles this
// harness reports are the ones a reader recomputes from its samples.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 1 {
		return xs[0], xs[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return q(1), q(3)
}

// tailPercentile is the highest of tailPercentiles that leaves at least
// ten of n samples beyond it, or 0 when none does.
func tailPercentile(n int) float64 {
	for _, t := range tailPercentiles {
		if n*t.beyond >= 10*1000 {
			return t.p
		}
	}
	return 0
}

// percentile of sorted xs at p (0..100), interpolating linearly between
// the closest ranks.
func percentile(xs []float64, p float64) float64 {
	pos := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (xs[lo+1]-xs[lo])*(pos-float64(lo))
}
