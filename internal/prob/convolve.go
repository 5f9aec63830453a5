package prob

// Divide-and-conquer PMF evaluation. The voter set is split (weight-
// balanced), each half's PMF is computed recursively, and the halves are
// merged by convolution. With FFT merges the work is O(W log^2 W) on total
// weight W instead of the naive DP's O(n*W); the crossover to the in-place
// DP is decided locally from a cost model, so small instances run exactly
// the code they always did while large ones get the asymptotic win.
//
// The cost model counts in "DP units" (one inner-loop update of the
// quadratic DP). Splitting a segment saves the difference between its DP
// cost and its halves' DP costs, and pays one FFT merge; the segment is a
// DP leaf whenever the merge costs more than it saves. fftUnitCost is the
// measured price of one FFT butterfly-equivalent in DP units (tuned with
// BenchmarkPoissonBinomialPMF; see DESIGN.md "Performance kernels").
//
// One tree (convTree) serves every exact evaluator — transient, fork-join
// and the retained DeltaTree — with one split rule (splitSegment), one
// merge (Workspace.merge) and the leaf kernel as its only parameter, so the
// evaluators agree bit for bit by construction.

import (
	"context"
	"math"
)

const (
	// Re-tuned from 4: the paired-FMA DP leaves run closer to peak than the
	// scalar FFT butterflies, so small merges go further before the FFT
	// pays for itself (~1.7x on BenchmarkPoissonBinomialPMF at n=2000, no
	// measurable change on the weight-heavy BenchmarkWeightedMajorityDP
	// whose large merges stay FFT either way).
	fftUnitCost = 6
	dcMinLeaf   = 32
)

// fftMergeCost estimates, in DP units, the price of one convolution merge
// producing resultLen values: two transforms of the padded size plus the
// linear packing/unpacking passes.
func fftMergeCost(resultLen int) int64 {
	lg := ceilLog2(resultLen)
	m := int64(1) << lg
	return fftUnitCost * m * int64(lg)
}

// pbDPCost is the DP cost of a k-voter Poisson-binomial segment:
// sum_{i=1..k} i updates.
func pbDPCost(k int64) int64 { return k * (k + 1) / 2 }

// PoissonBinomialDPCost returns the DP-unit cost of the exact n-voter
// Poisson-binomial table (the naive quadratic DP; the D&C evaluator only
// ever does less work). Exported so admission control in the serving layer
// can price a request in the same units the kernel cost model uses.
func PoissonBinomialDPCost(n int) int64 {
	if n <= 0 {
		return 0
	}
	return pbDPCost(int64(n))
}

// WeightedMajorityDPCost returns the DP-unit cost of exactly scoring a
// weighted-majority distribution over k sinks with total weight w: each
// sink sweeps the support, k*w updates. This is the election engine's
// per-resolution cost estimate (election.Options.ExactCostLimit bounds it),
// re-exported so callers above the engine can budget with the same model.
func WeightedMajorityDPCost(k, w int) int64 {
	if k <= 0 || w <= 0 {
		return 0
	}
	return int64(k) * int64(w)
}

// prefixAt returns the total weight of the first i voters of a sequence
// with prefix-weight table pw (pw[i] = weight of voters[:i]). A nil table
// stands for unit weights, the Poisson-binomial case.
func prefixAt(pw []int64, i int) int64 {
	if pw == nil {
		return int64(i)
	}
	return pw[i]
}

// dpCost is the quadratic DP's cost on voters [lo, hi): each voter sweeps
// the support reached so far. On unit weights the sum is pbDPCost(hi-lo).
func dpCost(pw []int64, lo, hi int) int64 {
	if pw == nil {
		return pbDPCost(int64(hi - lo))
	}
	var c int64
	for i := lo; i < hi; i++ {
		c += pw[i+1] - pw[lo]
	}
	return c
}

// splitSegment is the tree's leaf-or-split rule. It reports split == false
// when the segment [lo, hi) is a DP leaf: fewer than dcMinLeaf voters, or a
// split would save no more DP work than its merge costs. Otherwise mid is
// the weight-balanced split point, the smallest index in (lo, hi) whose
// left weight reaches half the segment's, which keeps both convolution
// operands (and so the padded FFT size) small. On unit weights mid is
// lo+(hi-lo)/2. Every decision depends only on prefix-weight differences
// inside the segment, so a segment's subtree is the same wherever the
// segment sits in the sequence.
func splitSegment(pw []int64, lo, hi int) (mid int, split bool) {
	if hi-lo < dcMinLeaf {
		return 0, false
	}
	base := prefixAt(pw, lo)
	w := prefixAt(pw, hi) - base
	target := base + w/2
	a, b := lo+1, hi-1
	for a < b {
		m := (a + b) / 2
		if prefixAt(pw, m) < target {
			a = m + 1
		} else {
			b = m
		}
	}
	gain := dpCost(pw, lo, hi) - dpCost(pw, lo, a) - dpCost(pw, a, hi)
	return a, gain > fftMergeCost(int(w)+1)
}

// convTree is one walk of the weight-balanced convolution tree over a voter
// sequence. The same build runs in three modes:
//
//   - transient (fork and keep nil): partial PMFs live in a Workspace
//     arena, rolled back to the node's mark after each merge;
//   - fork-join (fork set): as transient, but a node may hand its right
//     subtree to a new goroutine with a pooled workspace (see spawn);
//   - retained (keep set): every node is a heap deltaNode kept by the
//     DeltaTree, and unchanged subtrees of its previous tree are adopted.
//
// The leaf kernel is the only per-input difference: pbDPInto for
// Poisson-binomial probabilities, wmDPInto for weighted voters.
type convTree[V float64 | WeightedVoter] struct {
	vs   []V
	leaf func(f []float64, vs []V)
	pw   []int64 // prefix weights of vs; nil for unit weights
	fork *forkBudget
	keep *DeltaTree
}

// pbTree is the tree over Poisson-binomial probabilities.
func pbTree(ps []float64) convTree[float64] {
	return convTree[float64]{vs: ps, leaf: pbDPInto}
}

// wmTree is the tree over weighted voters; its prefix weights live in ws.
func (ws *Workspace) wmTree(voters []WeightedVoter) convTree[WeightedVoter] {
	return convTree[WeightedVoter]{vs: voters, leaf: wmDPInto, pw: ws.prefixWeights(voters)}
}

// eval computes the PMF of the whole sequence into ws's arena; the result
// is valid until the next kernel call on ws. workers > 1 runs the fork-join
// mode under a budget of that many goroutines, and only then is ctx read.
func (c convTree[V]) eval(ctx context.Context, ws *Workspace, workers int) ([]float64, error) {
	ws.reset(3*(int(prefixAt(c.pw, len(c.vs)))+1) + 64)
	if workers > 1 {
		c.fork = newForkBudget(workers)
	}
	f, _, err := c.build(ctx, ws, 0, len(c.vs))
	return f, err
}

// build returns the PMF of voters [lo, hi), and in retained mode its node.
// The float operations and their order are fixed by the segment alone —
// leaf kernel, split points, merge order — so all three modes write the
// same bytes for the same segment. ctx is read only in fork-join mode; the
// transient and retained modes cannot be cancelled and pass nil.
func (c convTree[V]) build(ctx context.Context, ws *Workspace, lo, hi int) ([]float64, *deltaNode, error) {
	if c.fork != nil {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
	}
	if c.keep != nil {
		if nd := c.keep.reusable(lo, hi); nd != nil {
			c.keep.stats.ReusedNodes++
			cDeltaNodesReused.Inc()
			return nd.pmf, nd, nil
		}
	}
	size := int(prefixAt(c.pw, hi)-prefixAt(c.pw, lo)) + 1
	mid, split := splitSegment(c.pw, lo, hi)
	if !split {
		cDCDPLeaves.Inc()
		f := c.alloc(ws, size)
		c.leaf(f, c.vs[lo:hi])
		if c.keep == nil {
			return f, nil, nil
		}
		c.keep.stats.RecomputedLeaves++
		return f, &deltaNode{span: hi - lo, pmf: f}, nil
	}
	cDCFFTMerges.Inc()
	mark := ws.off
	var childWS *Workspace
	var join chan forkResult
	if c.fork != nil && size >= parForkMinWeight && c.fork.tryAcquire() {
		childWS, join = c.spawn(ctx, mid, hi)
	}
	fl, left, err := c.build(ctx, ws, lo, mid)
	var fr []float64
	var right *deltaNode
	if join != nil {
		r := <-join
		fr = r.f
		if err == nil {
			err = r.err
		}
	} else if err == nil {
		fr, right, err = c.build(ctx, ws, mid, hi)
	}
	var f []float64
	if err == nil {
		// The merge reads both operands before writing, so the output may
		// reuse the arena the left operand occupies.
		ws.off = mark
		f = c.alloc(ws, size)
		ws.merge(f, fl, fr)
	}
	if childWS != nil {
		parWSPool.Put(childWS)
	}
	if err != nil || c.keep == nil {
		return f, nil, err
	}
	c.keep.stats.RecomputedMerges++
	return f, &deltaNode{span: hi - lo, pmf: f, left: left, right: right}, nil
}

// alloc returns storage for a node's PMF: the heap in retained mode, whose
// nodes outlive the walk, and the arena otherwise.
func (c convTree[V]) alloc(ws *Workspace, n int) []float64 {
	if c.keep != nil {
		return make([]float64, n)
	}
	return ws.alloc(n)
}

// pbDPInto runs the exact O(k^2) convolution DP over ps into f, which must
// have length len(ps)+1 and may hold garbage.
//
//lint:hotpath
func pbDPInto(f []float64, ps []float64) {
	zeroFloats(f)
	f[0] = 1
	// Voters are folded in two at a time: one pass with the pair's
	// convolution [a0, a1, a2] touches each f entry once instead of twice,
	// which matters because the DP is memory-bound. math.FMA is the
	// hardware fused multiply-add: one rounding instead of two,
	// deterministic across platforms (the softfloat fallback is
	// bit-identical). wmDPInto pairs and fuses the same way, so weight-1
	// majorities stay bit-identical to this Poisson-binomial path.
	reached := 0
	i := 0
	for ; i+1 < len(ps); i += 2 {
		p1, p2 := ps[i], ps[i+1]
		q1, q2 := 1-p1, 1-p2
		a0 := q1 * q2
		a1 := math.FMA(p1, q2, q1*p2)
		a2 := p1 * p2
		reached += 2
		// Iterate downward so f[k-1], f[k-2] still hold previous values.
		for k := reached; k >= 2; k-- {
			f[k] = math.FMA(f[k-2], a2, math.FMA(f[k-1], a1, f[k]*a0))
		}
		f[1] = math.FMA(f[0], a1, f[1]*a0)
		f[0] *= a0
	}
	if i < len(ps) {
		p := ps[i]
		q := 1 - p
		reached++
		for k := reached; k >= 1; k-- {
			f[k] = math.FMA(f[k-1], p, f[k]*q)
		}
		f[0] *= q
	}
}

// wmDPInto runs the exact O(k*W) DP over voters into f, which must have
// length (sum of weights)+1 and may hold garbage.
//
//lint:hotpath
func wmDPInto(f []float64, voters []WeightedVoter) {
	zeroFloats(f)
	f[0] = 1
	// Consecutive voters of equal weight are folded in as a pair, exactly
	// like pbDPInto pairs adjacent voters: same coefficients, same fused
	// update, same greedy left-to-right pairing. For an all-weight-1 voter
	// set the two kernels therefore perform identical float ops in the same
	// order — the all-direct == P^D bit-equality contract in
	// internal/election depends on that, so any further kernel change must
	// be mirrored in both.
	reached := 0
	i := 0
	for i < len(voters) {
		v := voters[i]
		w := v.Weight
		if i+1 < len(voters) && voters[i+1].Weight == w {
			p1, p2 := v.P, voters[i+1].P
			q1, q2 := 1-p1, 1-p2
			a0 := q1 * q2
			a1 := math.FMA(p1, q2, q1*p2)
			a2 := p1 * p2
			reached += 2 * w
			for t := reached; t >= 2*w; t-- {
				f[t] = math.FMA(f[t-2*w], a2, math.FMA(f[t-w], a1, f[t]*a0))
			}
			for t := 2*w - 1; t >= w; t-- {
				f[t] = math.FMA(f[t-w], a1, f[t]*a0)
			}
			for t := w - 1; t >= 0; t-- {
				f[t] *= a0
			}
			i += 2
			continue
		}
		p := v.P
		q := 1 - p
		reached += w
		for t := reached; t >= w; t-- {
			f[t] = math.FMA(f[t-w], p, f[t]*q)
		}
		for t := w - 1; t >= 0; t-- {
			f[t] *= q
		}
		i++
	}
}

// prefixWeights fills ws.pw with the prefix-weight table of voters.
func (ws *Workspace) prefixWeights(voters []WeightedVoter) []int64 {
	if cap(ws.pw) < len(voters)+1 {
		ws.pw = make([]int64, len(voters)+1)
	}
	pw := ws.pw[:len(voters)+1]
	pw[0] = 0
	for i, v := range voters {
		pw[i+1] = pw[i] + int64(v.Weight)
	}
	return pw
}
