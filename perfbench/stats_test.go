package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{2.5, 7.5, 1, 9, 4}, 1.75, 4, 8.25},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := quartileSpread([]float64{10, 20, 30, 40}); got != 1 {
		t.Errorf("quartileSpread = %v, want (37.5-12.5)/25 = 1", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("empty median is not NaN")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	// 2000 samples: the 99th percentile, 20 beyond it.
	if v, p := tailPercentile(seq(2000)); p != 99 || v != 1980 {
		t.Errorf("n=2000: %v at p%v", v, p)
	}
	// 40 samples: the 75th percentile, the highest with ten beyond.
	if v, p := tailPercentile(seq(40)); p != 75 || v != 30 {
		t.Errorf("n=40: %v at p%v", v, p)
	}
	// Fewer than forty: the maximum.
	if v, p := tailPercentile(seq(16)); p != 100 || v != 16 {
		t.Errorf("n=16: %v at p%v", v, p)
	}
}
