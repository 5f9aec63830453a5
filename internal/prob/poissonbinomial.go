package prob

import (
	"fmt"
	"math"
)

// PoissonBinomial is the distribution of a sum of independent Bernoulli
// variables with (possibly distinct) success probabilities.
type PoissonBinomial struct {
	ps []float64
}

// validateProbs checks every probability lies in [0, 1].
func validateProbs(ps []float64) error {
	for i, p := range ps {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("%w: p[%d] = %v not in [0,1]", ErrInvalidParameter, i, p)
		}
	}
	return nil
}

// NewPoissonBinomial validates the probability vector and returns the
// distribution. Every p must lie in [0, 1]. The vector is copied; for a
// zero-allocation borrowing constructor see Workspace.PoissonBinomial.
func NewPoissonBinomial(ps []float64) (*PoissonBinomial, error) {
	if err := validateProbs(ps); err != nil {
		return nil, err
	}
	cp := make([]float64, len(ps))
	copy(cp, ps)
	return &PoissonBinomial{ps: cp}, nil
}

// N returns the number of summands.
func (pb *PoissonBinomial) N() int { return len(pb.ps) }

// Mean returns the expected value of the sum.
func (pb *PoissonBinomial) Mean() float64 {
	return Sum(pb.ps)
}

// Variance returns the variance of the sum.
func (pb *PoissonBinomial) Variance() float64 {
	var v Accumulator
	for _, p := range pb.ps {
		v.Add(p * (1 - p))
	}
	return v.Sum()
}

// PMF returns the full probability mass function f where f[k] = P[sum = k]
// for k in [0, n]. Small instances run the exact O(n^2) convolution DP;
// large ones the divide-and-conquer evaluator (see PMFWS).
func (pb *PoissonBinomial) PMF() []float64 {
	ws := getWorkspace()
	f := pb.PMFWS(ws)
	out := make([]float64, len(f))
	copy(out, f)
	putWorkspace(ws)
	return out
}

// PMFNaive returns the PMF via the plain O(n^2) dynamic program with no
// divide-and-conquer, whatever the size. It is the cross-validation
// reference for the fast evaluator (and its leaf kernel).
func (pb *PoissonBinomial) PMFNaive() []float64 {
	f := make([]float64, len(pb.ps)+1)
	pbDPInto(f, pb.ps)
	return f
}

// PMFWS computes the PMF into ws-owned memory and returns it. The result
// is valid until the next kernel call on ws. Above the cost-model
// crossover the voter set is split recursively and halves are merged by
// FFT convolution (O(n log^2 n) work); below it the in-place DP runs
// unchanged, so workspace reuse is the only difference for small inputs.
func (pb *PoissonBinomial) PMFWS(ws *Workspace) []float64 {
	f, _ := pbTree(pb.ps).eval(nil, ws, 1)
	return f
}

// ProbAtLeast returns P[sum >= k].
func (pb *PoissonBinomial) ProbAtLeast(k int) float64 {
	ws := getWorkspace()
	v := pb.ProbAtLeastWS(ws, k)
	putWorkspace(ws)
	return v
}

// ProbAtLeastWS returns P[sum >= k] using ws for scratch: the PMF lives
// only in workspace memory and the upper tail is summed in place, so the
// call allocates nothing once ws is warm.
func (pb *PoissonBinomial) ProbAtLeastWS(ws *Workspace, k int) float64 {
	if k <= 0 {
		return 1
	}
	n := len(pb.ps)
	if k > n {
		return 0
	}
	f := pb.PMFWS(ws)
	return clamp01(Sum(f[k : n+1]))
}

// ProbMajority returns the probability that strictly more than half of the
// variables succeed: P[sum > n/2]. Ties (possible only for even n) count as
// failure, matching the paper's weighted-majority rule.
func (pb *PoissonBinomial) ProbMajority() float64 {
	n := len(pb.ps)
	return pb.ProbAtLeast(n/2 + 1)
}

// ProbMajorityWS is ProbMajority with caller-provided scratch.
func (pb *PoissonBinomial) ProbMajorityWS(ws *Workspace) float64 {
	n := len(pb.ps)
	return pb.ProbAtLeastWS(ws, n/2+1)
}

// NormalApproximation returns the normal distribution matching the sum's
// mean and variance (the CLT limit of Lemma 4 in the paper).
func (pb *PoissonBinomial) NormalApproximation() Normal {
	return Normal{Mu: pb.Mean(), Sigma: math.Sqrt(pb.Variance())}
}
