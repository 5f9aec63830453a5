package prob

import (
	"fmt"
	"math"
)

// WeightedVoter is one independent Bernoulli voter with an integer vote
// weight. In the delegation setting a voter is a sink of the delegation
// graph and its weight counts the votes delegated to it (including itself).
type WeightedVoter struct {
	Weight int
	P      float64
}

// WeightedMajority is the distribution of the total correct weight
// W = sum_i Weight_i * Bernoulli(P_i) over independent voters.
type WeightedMajority struct {
	voters []WeightedVoter
	total  int
}

// validateVoters checks weights >= 1 and probabilities in [0, 1], and
// returns the total weight.
func validateVoters(voters []WeightedVoter) (int, error) {
	total := 0
	for i, v := range voters {
		if v.Weight < 1 {
			return 0, fmt.Errorf("%w: voter %d has weight %d < 1", ErrInvalidParameter, i, v.Weight)
		}
		if v.P < 0 || v.P > 1 || math.IsNaN(v.P) {
			return 0, fmt.Errorf("%w: voter %d has p = %v not in [0,1]", ErrInvalidParameter, i, v.P)
		}
		total += v.Weight
	}
	return total, nil
}

// NewWeightedMajority validates voters (weights >= 1, probabilities in
// [0, 1]) and returns the distribution. The slice is copied; for a
// zero-allocation borrowing constructor see Workspace.WeightedMajority.
func NewWeightedMajority(voters []WeightedVoter) (*WeightedMajority, error) {
	total, err := validateVoters(voters)
	if err != nil {
		return nil, err
	}
	cp := make([]WeightedVoter, len(voters))
	copy(cp, voters)
	return &WeightedMajority{voters: cp, total: total}, nil
}

// TotalWeight returns the sum of all weights (n in the paper: every vote is
// delegated somewhere, so weights sum to the number of voters).
func (wm *WeightedMajority) TotalWeight() int { return wm.total }

// Mean returns E[W], the expected correct weight.
func (wm *WeightedMajority) Mean() float64 {
	var m Accumulator
	for _, v := range wm.voters {
		m.Add(float64(v.Weight) * v.P)
	}
	return m.Sum()
}

// Variance returns Var[W].
func (wm *WeightedMajority) Variance() float64 {
	var s Accumulator
	for _, v := range wm.voters {
		w := float64(v.Weight)
		s.Add(w * w * v.P * (1 - v.P))
	}
	return s.Sum()
}

// PMF returns f with f[t] = P[W = t] for t in [0, TotalWeight]. Small
// instances run the exact O(|voters| * TotalWeight) dynamic program; large
// ones the divide-and-conquer evaluator (see PMFWS).
func (wm *WeightedMajority) PMF() []float64 {
	ws := getWorkspace()
	f := wm.PMFWS(ws)
	out := make([]float64, len(f))
	copy(out, f)
	putWorkspace(ws)
	return out
}

// PMFNaive returns the PMF via the plain O(|voters| * TotalWeight) dynamic
// program with no divide-and-conquer, whatever the size. It is the
// cross-validation reference for the fast evaluator (and its leaf kernel).
func (wm *WeightedMajority) PMFNaive() []float64 {
	f := make([]float64, wm.total+1)
	wmDPInto(f, wm.voters)
	return f
}

// PMFWS computes the PMF into ws-owned memory and returns it. The result
// is valid until the next kernel call on ws. Above the cost-model
// crossover the voter set is split weight-balanced and halves are merged
// by FFT convolution; below it the in-place DP runs unchanged.
func (wm *WeightedMajority) PMFWS(ws *Workspace) []float64 {
	f, _ := ws.wmTree(wm.voters).eval(nil, ws, 1)
	return f
}

// ProbAbove returns P[W > threshold].
func (wm *WeightedMajority) ProbAbove(threshold int) float64 {
	ws := getWorkspace()
	v := wm.ProbAboveWS(ws, threshold)
	putWorkspace(ws)
	return v
}

// ProbAboveWS returns P[W > threshold] using ws for scratch: the PMF lives
// only in workspace memory and the upper tail is summed in place, so the
// call allocates nothing once ws is warm.
func (wm *WeightedMajority) ProbAboveWS(ws *Workspace, threshold int) float64 {
	if threshold < 0 {
		return 1
	}
	if threshold >= wm.total {
		return 0
	}
	f := wm.PMFWS(ws)
	return clamp01(Sum(f[threshold+1 : wm.total+1]))
}

// ProbCorrectDecision returns the probability that the weighted-majority
// vote selects the correct option: P[W > TotalWeight - W], i.e.
// P[2W > TotalWeight]. Exact ties lose, per the paper's Section 2.2 rule
// that the correct option is chosen only if the correct weight strictly
// exceeds the incorrect weight.
func (wm *WeightedMajority) ProbCorrectDecision() float64 {
	// 2W > total  <=>  W > floor(total/2) when total is odd, and
	// W > total/2 when total is even; both are W > total/2 in integers:
	return wm.ProbAbove(wm.total / 2)
}

// ProbCorrectDecisionWS is ProbCorrectDecision with caller-provided
// scratch.
func (wm *WeightedMajority) ProbCorrectDecisionWS(ws *Workspace) float64 {
	return wm.ProbAboveWS(ws, wm.total/2)
}

// NormalApproximation returns the CLT approximation of W.
func (wm *WeightedMajority) NormalApproximation() Normal {
	return Normal{Mu: wm.Mean(), Sigma: math.Sqrt(wm.Variance())}
}

// MaxWeight returns the largest single weight, the quantity bounded by
// Lemma 5 of the paper.
func (wm *WeightedMajority) MaxWeight() int {
	maxW := 0
	for _, v := range wm.voters {
		if v.Weight > maxW {
			maxW = v.Weight
		}
	}
	return maxW
}

// TieRule selects how exact ties (possible only for even total weight) are
// decided. The paper's Section 2.2 rule is TiesLose.
type TieRule int

const (
	// TiesLose counts a tie as an incorrect decision (the paper's rule).
	TiesLose TieRule = iota + 1
	// TiesWin counts a tie as a correct decision.
	TiesWin
	// TiesCoin decides ties by a fair coin.
	TiesCoin
)

// ProbCorrectDecisionRule returns the probability of a correct decision
// under the given tie rule. For odd total weight all rules coincide.
func (wm *WeightedMajority) ProbCorrectDecisionRule(rule TieRule) float64 {
	base := wm.ProbCorrectDecision()
	if wm.total%2 != 0 {
		return base
	}
	tie := wm.ProbTie()
	switch rule {
	case TiesWin:
		return clamp01(base + tie)
	case TiesCoin:
		return clamp01(base + tie/2)
	default:
		return base
	}
}

// ProbTie returns the probability of an exact tie (0 for odd totals).
func (wm *WeightedMajority) ProbTie() float64 {
	if wm.total%2 != 0 {
		return 0
	}
	ws := getWorkspace()
	v := wm.PMFWS(ws)[wm.total/2]
	putWorkspace(ws)
	return v
}
