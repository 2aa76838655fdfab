package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) (exclusive
	// method), the quartiles a reader recomputes from the samples.
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5}, 1.5, 5.5},
		{[]float64{0.5, 0.25, 2.0, 1.5, 1.0, 3.0, 0.75}, 0.5, 2.0},
		{[]float64{7}, 7, 7},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if !near(s.Q1, c.q1) || !near(s.Q3, c.q3) {
			t.Errorf("quartiles of %v = %g, %g; want %g, %g", c.xs, s.Q1, s.Q3, c.q1, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := summarize([]float64{5, 1, 3}).Median; got != 3 {
		t.Errorf("median of odd sample = %g, want 3", got)
	}
	if got := summarize([]float64{4, 1, 3, 2}).Median; got != 2.5 {
		t.Errorf("median of even sample = %g, want 2.5", got)
	}
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := map[int]float64{
		1: 0, 19: 0, 20: 50, 39: 50, 40: 75, 99: 75, 100: 90,
		199: 90, 200: 95, 999: 95, 1000: 99, 9999: 99, 10000: 99.9,
	}
	for n, want := range cases {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %g, want %g", n, got, want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	s := summarize(xs)
	if s.TailPct != 90 || !near(s.Tail, 90.1) || s.N != 100 {
		t.Errorf("summary of 1..100 = %+v, want p90 = 90.1, n 100", s)
	}
}

func TestSpread(t *testing.T) {
	s := summary{Median: 2, Q1: 1.9, Q3: 2.3}
	if !near(s.spread(), 0.2) {
		t.Errorf("spread = %g, want 0.2", s.spread())
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
