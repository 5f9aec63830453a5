package main

import (
	"math"
	"testing"
)

func TestNaiveMajorityPBHandCases(t *testing.T) {
	cases := []struct {
		ps   []float64
		want float64
	}{
		{[]float64{0.9}, 0.9},                     // one voter decides alone
		{[]float64{0.6, 0.7}, 0.42},               // n = 2: both must be right, a 1-1 tie loses
		{[]float64{0.5, 0.5, 0.5}, 0.5},           // P[S >= 2] = 3/8 + 1/8
		{[]float64{0.8, 0.6, 0.5}, 0.7},           // .8*.6 + .8*.4*.5 + .2*.6*.5
		{[]float64{1, 1, 0, 0}, 0},                // 2-2 is a tie
		{[]float64{0.5, 0.5, 0.5, 0.5}, 5.0 / 16}, // P[S >= 3] = (4 + 1) / 16
	}
	for _, c := range cases {
		if got := naiveMajorityPB(c.ps); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("naiveMajorityPB(%v) = %v, want %v", c.ps, got, c.want)
		}
	}
}

func TestNaiveMajorityWMHandCases(t *testing.T) {
	cases := []struct {
		vs   []weighted
		want float64
	}{
		// Total 5: W >= 3 exactly when the weight-3 sink is right.
		{[]weighted{{3, 0.6}, {1, 0.9}, {1, 0.5}}, 0.6},
		// Total 4: W = 2 is a tie and loses, so both must be right.
		{[]weighted{{2, 0.7}, {2, 0.4}}, 0.28},
		// Total 4: W >= 3 needs the weight-2 sink and at least one of the
		// others right: .5 * .75.
		{[]weighted{{2, 0.5}, {1, 0.5}, {1, 0.5}}, 0.375},
	}
	for _, c := range cases {
		if got := naiveMajorityWM(c.vs); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("naiveMajorityWM(%v) = %v, want %v", c.vs, got, c.want)
		}
	}
}

func TestNaiveMajorityWMUnitWeightsIsPB(t *testing.T) {
	ps := []float64{0.31, 0.52, 0.47, 0.66, 0.58, 0.49, 0.7}
	vs := make([]weighted, len(ps))
	for i, p := range ps {
		vs[i] = weighted{1, p}
	}
	if a, b := naiveMajorityPB(ps), naiveMajorityWM(vs); a != b {
		t.Errorf("PB %v != WM with unit weights %v", a, b)
	}
}

func TestBerryEsseenContainsExact(t *testing.T) {
	for _, n := range []int{51, 200, 1001} {
		p := func(i int) float64 { return 0.4 + 0.2*float64(i%7)/6 }
		ps := make([]float64, n)
		for i := range ps {
			ps[i] = p(i)
		}
		exact := naiveMajorityPB(ps)
		iv := berryEsseenMajority(n, p)
		if !iv.contains(exact) {
			t.Errorf("n=%d: exact %v outside Berry–Esseen [%v, %v]", n, exact, iv.lo, iv.hi)
		}
		if iv.hi-iv.lo >= 1 {
			t.Errorf("n=%d: vacuous interval [%v, %v]", n, iv.lo, iv.hi)
		}
	}
	// A deterministic sum has no variance to certify from.
	if iv := berryEsseenMajority(3, func(int) float64 { return 1 }); iv.lo != 0 || iv.hi != 1 {
		t.Errorf("zero variance: [%v, %v], want [0, 1]", iv.lo, iv.hi)
	}
}

func TestIntervalOverlap(t *testing.T) {
	a := interval{0.2, 0.4}
	if !a.overlaps(interval{0.4, 0.5}) || a.overlaps(interval{0.41, 0.5}) || !a.overlaps(interval{0, 1}) {
		t.Error("overlap is wrong at the edges")
	}
}
