package main

// Correctness oracles written apart from the program: the textbook O(n²)
// dynamic programs and a Berry–Esseen interval. They share no code with
// internal/prob, so an answer that agrees with them is checked against an
// independent computation, not against itself.

import "math"

// kahan is a Neumaier-compensated running sum.
type kahan struct{ sum, c float64 }

func (k *kahan) add(x float64) {
	t := k.sum + x
	if math.Abs(k.sum) >= math.Abs(x) {
		k.c += (k.sum - t) + x
	} else {
		k.c += (x - t) + k.sum
	}
	k.sum = t
}

func (k *kahan) value() float64 { return k.sum + k.c }

// naiveMajorityPB returns P[S > n/2] for S a sum of independent Bernoulli(p_i)
// votes, ties losing, by the quadratic Poisson-binomial recurrence
// pmf'[k] = pmf[k](1-p) + pmf[k-1]p.
func naiveMajorityPB(ps []float64) float64 {
	voters := make([]weighted, len(ps))
	for i, p := range ps {
		voters[i] = weighted{w: 1, p: p}
	}
	return naiveMajorityWM(voters)
}

// weighted is one resolved sink: it casts w votes, all correct with
// probability p.
type weighted struct {
	w int
	p float64
}

// naiveMajorityWM returns P[W > total/2] for W the correct weight of
// independent sinks, ties losing, by the O(sinks × total weight) recurrence
// pmf'[k] = pmf[k](1-p) + pmf[k-w]p, evaluated in place from the top down.
func naiveMajorityWM(voters []weighted) float64 {
	total := 0
	for _, v := range voters {
		total += v.w
	}
	pmf := make([]float64, total+1)
	pmf[0] = 1
	hi := 0
	for _, v := range voters {
		q := 1 - v.p
		for k := hi + v.w; k >= v.w; k-- {
			pmf[k] = pmf[k]*q + pmf[k-v.w]*v.p
		}
		for k := min(v.w-1, hi); k >= 0; k-- {
			pmf[k] *= q
		}
		hi += v.w
	}
	var tail kahan
	for k := total/2 + 1; k <= total; k++ {
		tail.add(pmf[k])
	}
	return tail.value()
}

// berryEsseenC is Shevtsova's constant for the Berry–Esseen bound on sums
// of independent, not identically distributed terms.
const berryEsseenC = 0.5600

// interval is a closed probability interval.
type interval struct{ lo, hi float64 }

func (iv interval) overlaps(o interval) bool { return iv.lo <= o.hi && o.lo <= iv.hi }

func (iv interval) contains(x float64) bool { return iv.lo <= x && x <= iv.hi }

// berryEsseenMajority encloses P[S > floor(n/2)] for S a sum of n
// independent Bernoulli(p(i)) votes: the normal tail at the threshold plus
// or minus the Berry–Esseen bound C·Σρ_i/σ³, where σ² = Σp(1-p) and
// ρ_i = E|X_i - p_i|³ = p(1-p)(p² + (1-p)²). One pass over the competencies.
func berryEsseenMajority(n int, p func(i int) float64) interval {
	var mu, v, rho kahan
	for i := 0; i < n; i++ {
		pi := p(i)
		q := 1 - pi
		mu.add(pi)
		v.add(pi * q)
		rho.add(pi * q * (pi*pi + q*q))
	}
	sigma2 := v.value()
	if sigma2 <= 0 {
		return interval{0, 1}
	}
	sigma := math.Sqrt(sigma2)
	z := (float64(n/2) - mu.value()) / sigma
	tail := 0.5 * math.Erfc(z/math.Sqrt2)
	b := berryEsseenC * rho.value() / (sigma2 * sigma)
	return interval{lo: math.Max(0, tail-b), hi: math.Min(1, tail+b)}
}
