package prob

// The approximation ladder. Million-voter electorates cannot afford — and do
// not need — the exact kernels: the normal approximation's certified error
// shrinks like 1/sqrt(n), so beyond a few thousand voters a rigorous interval
// of width far below any experimental tolerance costs one O(n) streaming pass
// instead of an O(n log^2 n) convolution tree. The ladder puts the three
// evaluation strategies behind one entry point:
//
//	exact DP   — the quadratic convolution DP, error exactly 0;
//	FFT D&C    — the divide-and-conquer evaluator with FFT merges, error
//	             bounded by the kernel's cross-validated total-variation
//	             budget (FuzzConvolutionEquivalence enforces it);
//	normal     — the Berry–Esseen-certified normal approximation intersected
//	             with the one-sided Hoeffding tail bound, from one streaming
//	             moments pass that never materialises the electorate.
//
// LadderMajority auto-selects the cheapest tier whose certified half-width
// fits the caller's error budget, and every tier returns a CertifiedInterval
// — a point estimate plus a machine-checkable rigorous half-width — instead
// of a bare float. The metamorphic property tests in ladder_test.go and the
// FuzzLadderSoundness target hold every tier to the containment contract:
// the exact value always lies inside any cheaper tier's interval.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
)

// Tier identifies a rung of the approximation ladder.
type Tier int

const (
	// TierAuto selects the cheapest tier whose certified half-width fits the
	// error budget (the zero value, so LadderOptions defaults to it).
	TierAuto Tier = iota
	// TierExact is the quadratic convolution DP: half-width exactly 0.
	TierExact
	// TierFFT is the divide-and-conquer evaluator with FFT merges:
	// half-width FFTTierErrorBudget.
	TierFFT
	// TierNormal is the certified normal approximation: half-width from the
	// Berry–Esseen bound intersected with the Hoeffding tail bound.
	TierNormal
)

// String returns the tier's wire name (stable; the serving layer reports it).
func (t Tier) String() string {
	switch t {
	case TierAuto:
		return "auto"
	case TierExact:
		return "exact"
	case TierFFT:
		return "fft"
	case TierNormal:
		return "normal"
	default:
		return "unknown"
	}
}

// FFTTierErrorBudget is the certified half-width of a TierFFT result: the
// total-variation budget the D&C evaluator is held to against the naive DP
// (FuzzConvolutionEquivalence in `make check` fuzz-smoke; observed error is
// ~1e-15, the budget leaves six orders of headroom). Total-variation distance
// dominates any tail-sum difference, so the majority mass inherits it.
const FFTTierErrorBudget = 1e-9

// ErrBudgetInfeasible reports that no ladder tier could certify the requested
// error budget within the cost constraints. The interval returned alongside
// it is still valid — the tightest certified one available — so callers that
// prefer degraded answers over refusals (the serving layer) can use it.
var ErrBudgetInfeasible = errors.New("prob: error budget infeasible within cost constraints")

// CertifiedInterval is a point estimate of a probability together with a
// rigorous half-width: the exact value provably lies in [Lo, Hi]. Tier
// records which rung produced it.
type CertifiedInterval struct {
	Point     float64
	HalfWidth float64
	Tier      Tier
}

// Lo returns the interval's lower bound, clamped to the probability domain.
func (ci CertifiedInterval) Lo() float64 { return clamp01(ci.Point - ci.HalfWidth) }

// Hi returns the interval's upper bound, clamped to the probability domain.
func (ci CertifiedInterval) Hi() float64 { return clamp01(ci.Point + ci.HalfWidth) }

// Contains reports whether v lies inside the certified interval.
func (ci CertifiedInterval) Contains(v float64) bool {
	return v >= ci.Lo() && v <= ci.Hi()
}

// ChunkedSeq is a streamed probability sequence: the competency (or resolved
// sink success-probability) vector of an electorate, produced in fixed chunks
// so no consumer ever materialises the whole thing. Chunks partition the
// index range [0, Len) in order; AppendChunk appends chunk c's values to dst
// and returns the extended slice, so callers iterate with one chunk-sized
// buffer. internal/scale's StreamInstance is the million-voter implementation;
// SliceSeq adapts an in-memory vector.
type ChunkedSeq interface {
	Len() int
	NumChunks() int
	AppendChunk(dst []float64, c int) []float64
}

// sliceSeqChunk is SliceSeq's default chunk size.
const sliceSeqChunk = 1 << 14

// SliceSeq adapts an in-memory probability vector to ChunkedSeq. Chunk is
// the chunk size (default 1<<14). The values are borrowed, not copied.
type SliceSeq struct {
	PS    []float64
	Chunk int
}

func (s SliceSeq) chunk() int {
	if s.Chunk > 0 {
		return s.Chunk
	}
	return sliceSeqChunk
}

// Len returns the sequence length.
func (s SliceSeq) Len() int { return len(s.PS) }

// NumChunks returns the number of chunks covering the sequence.
func (s SliceSeq) NumChunks() int {
	c := s.chunk()
	return (len(s.PS) + c - 1) / c
}

// AppendChunk appends chunk c's values to dst.
func (s SliceSeq) AppendChunk(dst []float64, c int) []float64 {
	lo := c * s.chunk()
	hi := lo + s.chunk()
	if hi > len(s.PS) {
		hi = len(s.PS)
	}
	return append(dst, s.PS[lo:hi]...)
}

// SumStats accumulates the normal tier's sufficient statistics for a sum of
// independent weighted Bernoulli terms w·X, X ~ Bernoulli(p): mean, variance,
// the Berry–Esseen third-moment numerator, and the Hoeffding squared-span
// total. Partials fold per chunk and merge in chunk order (Merge), so a
// parallel fold that merges partials in a fixed order is bit-identical to the
// sequential pass regardless of worker count. The zero value is empty.
type SumStats struct {
	n                  int64
	mu, vr, rho, spans Accumulator
}

// Add incorporates one term with weight w and success probability p.
func (s *SumStats) Add(w, p float64) {
	s.n++
	q := p * (1 - p)
	aw := math.Abs(w)
	s.mu.Add(w * p)
	s.vr.Add(w * w * q)
	s.rho.Add(aw * aw * aw * q * (p*p + (1-p)*(1-p)))
	s.spans.Add(w * w)
}

// Merge folds o's totals into s. Merging partials in a fixed order is the
// determinism contract: the compensated sums are not associative to the last
// ulp, so parallel folds must merge chunk partials in chunk index order.
func (s *SumStats) Merge(o *SumStats) {
	s.n += o.n
	s.mu.Add(o.mu.Sum())
	s.vr.Add(o.vr.Sum())
	s.rho.Add(o.rho.Sum())
	s.spans.Add(o.spans.Sum())
}

// N returns the number of terms added.
func (s *SumStats) N() int64 { return s.n }

// Mean returns the accumulated E[S].
func (s *SumStats) Mean() float64 { return s.mu.Sum() }

// Variance returns the accumulated Var[S].
func (s *SumStats) Variance() float64 { return s.vr.Sum() }

// SumSquaredSpans returns the Hoeffding squared-span total, taking each
// term's range as [0, w] (valid for any Bernoulli term, if loose for
// near-deterministic ones).
func (s *SumStats) SumSquaredSpans() float64 { return s.spans.Sum() }

// BerryEsseen returns the certified uniform bound on the normal
// approximation error of the accumulated sum — the same bound as
// BerryEsseenWeightedBound, from the streamed moments.
func (s *SumStats) BerryEsseen() float64 {
	sigma2 := s.Variance()
	if sigma2 <= 0 {
		return 1
	}
	b := berryEsseenC * s.rho.Sum() / (sigma2 * math.Sqrt(sigma2))
	if b > 1 || math.IsNaN(b) {
		return 1
	}
	return b
}

// certifySlack widens the normal tier's band by a fixed numerical margin.
// The Berry–Esseen and Hoeffding enclosures are exact statements about the
// true probability, but the values they are checked against — the exact DP,
// the FFT evaluator — are finite-precision computations with their own
// rounding (observed ~1e-16 at test sizes; the metamorphic containment
// tests compare computed values, not reals). 1e-12 covers that rounding
// with orders of headroom while staying far below any statistically
// meaningful width.
const certifySlack = 1e-12

// CertifyMajority builds the normal tier's certified interval for
// q = P[S > threshold] from streamed sufficient statistics. The certified
// band is the intersection of two rigorous enclosures of q:
//
//   - Berry–Esseen: |q - SF(threshold)| <= BerryEsseen(), uniformly;
//   - Hoeffding, one-sided on whichever tail the threshold sits in:
//     q <= exp(-2t²/Σspan²) when t = threshold - mean >= 0, and
//     1 - q <= exp(-2t²/Σspan²) when t < 0.
//
// The point estimate is the continuity-corrected SF(threshold + 1/2) (exact
// sums are integer-supported), clamped into the certified band; HalfWidth
// covers the whole band, so the interval remains rigorous whatever the point.
// A zero-variance sum is deterministic and certifies with half-width 0.
func CertifyMajority(s *SumStats, threshold float64) CertifiedInterval {
	mu := s.Mean()
	sigma2 := s.Variance()
	dist := Normal{Mu: mu, Sigma: math.Sqrt(sigma2)}
	base := dist.SF(threshold)
	if sigma2 <= 0 {
		// Every term is deterministic: S = mu always, and the degenerate SF
		// is exactly P[S > threshold].
		return CertifiedInterval{Point: base, HalfWidth: 0, Tier: TierNormal}
	}
	be := s.BerryEsseen()
	lo := clamp01(base - be)
	hi := clamp01(base + be)
	if sss := s.SumSquaredSpans(); sss > 0 {
		t := threshold - mu
		h := math.Exp(-2 * t * t / sss)
		if t >= 0 {
			if h < hi {
				hi = h
			}
		} else if 1-h > lo {
			lo = 1 - h
		}
	}
	lo = clamp01(lo - certifySlack)
	hi = clamp01(hi + certifySlack)
	if hi < lo {
		hi = lo
	}
	point := clamp01(dist.SF(threshold + 0.5))
	if point < lo {
		point = lo
	} else if point > hi {
		point = hi
	}
	return CertifiedInterval{Point: point, HalfWidth: math.Max(point-lo, hi-point), Tier: TierNormal}
}

// ClassifyExactTier reports which kernel rung the cost model runs an n-voter
// Poisson-binomial evaluation on: TierExact when the root of the D&C tree
// stays on the quadratic DP leaf (the whole evaluation is one exact DP, no
// FFT anywhere, so the result carries zero approximation error), TierFFT
// when the root splits and at least the final merge goes through FFT
// convolution. The rule is the tree's own leaf-or-split rule at the root,
// so the label always matches what the kernel actually does.
func ClassifyExactTier(n int) Tier {
	if _, split := splitSegment(nil, 0, n); split {
		return TierFFT
	}
	return TierExact
}

// ParallelWorkerBudget chooses the fork-join worker budget for an n-voter
// kernel evaluation from the cost model: 1 when the root stays a DP leaf
// (nothing to fork), otherwise roughly one worker per forkable subtree
// (parForkMinWeight support each), capped at max. The choice tunes only
// scheduling — PMFParallelWS is bit-identical for every workers value — so
// routing every caller through it makes the D&C tree parallel by default
// without risking any table.
func ParallelWorkerBudget(n, max int) int {
	if max < 1 {
		max = 1
	}
	if _, split := splitSegment(nil, 0, n); !split {
		return 1
	}
	w := n / parForkMinWeight
	if w < 1 {
		w = 1
	}
	if w > max {
		w = max
	}
	return w
}

// ladderEscalationN is the size below which LadderCostEstimate assumes the
// ladder escalates past the normal tier: the certified half-width shrinks
// like 1/sqrt(n), so small instances are the ones whose budgets force the
// kernel tiers.
const ladderEscalationN = 1 << 12

// exactTierCost prices the kernel tiers in DP units: the quadratic DP below
// the root crossover, the FFT D&C's padded O(m log^2 m) unit count above it.
func exactTierCost(n int) int64 {
	if ClassifyExactTier(n) == TierExact {
		return PoissonBinomialDPCost(n)
	}
	lg := int64(ceilLog2(n + 1))
	m := int64(1) << lg
	return fftUnitCost * m * lg * lg
}

// LadderCostEstimate prices an n-voter ladder majority query in DP units for
// admission control: the O(n) streaming moments pass always runs; the kernel
// tier's cost is added when the query is small enough that a realistic error
// budget forces escalation (see ladderEscalationN), or when errorBudget <= 0
// demands the kernel tiers outright. Like EstimateCost in the serving layer,
// this is a shed threshold, not an exact prediction.
func LadderCostEstimate(n int, errorBudget float64) int64 {
	if n <= 0 {
		return 0
	}
	moments := int64(n)
	if errorBudget > 0 && n > ladderEscalationN {
		return moments
	}
	return moments + exactTierCost(n)
}

// LadderOptions tunes LadderMajority. The zero value auto-selects with no
// error budget (most precise affordable tier), the default exact-tier size
// cap, and the full GOMAXPROCS worker budget.
type LadderOptions struct {
	// ErrorBudget is the maximum acceptable certified half-width. > 0 lets
	// the ladder stop at the cheapest tier within budget; <= 0 demands the
	// most precise tier the other constraints afford.
	ErrorBudget float64
	// CostBudget, when > 0, caps the kernel tiers' DP-unit cost; a query
	// whose exact evaluation would exceed it stays on the normal tier.
	CostBudget int64
	// Workers caps the kernel tiers' fork-join budget (0 = GOMAXPROCS). The
	// effective budget is cost-model-chosen via ParallelWorkerBudget and
	// never affects any result.
	Workers int
	// Force pins a tier, bypassing selection: TierExact runs the quadratic
	// DP whatever n (the metamorphic reference), TierFFT the D&C evaluator,
	// TierNormal the streaming pass. TierAuto (zero) selects.
	Force Tier
	// MaxExactN caps the size the kernel tiers will materialise (default
	// 1<<17). Beyond it the ladder stays on the streaming normal tier, which
	// is what keeps million-voter queries out of O(n^2) memory-time space.
	MaxExactN int
}

func (o LadderOptions) withDefaults() LadderOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxExactN <= 0 {
		o.MaxExactN = 1 << 17
	}
	return o
}

// LadderMajority evaluates q = P[sum > n/2] — the majority mass of the
// Poisson binomial over seq's probabilities — on the cheapest ladder tier
// whose certified half-width fits opts.ErrorBudget. The streaming normal
// tier holds only one chunk of seq at a time; the kernel tiers materialise
// the vector (sorted ascending, the kernels' canonical order) only when
// selected and only below opts.MaxExactN. When no tier satisfies the
// constraints the tightest certified interval is returned along with
// ErrBudgetInfeasible, so degrading callers still get a sound answer.
func LadderMajority(ctx context.Context, seq ChunkedSeq, opts LadderOptions) (CertifiedInterval, error) {
	n := seq.Len()
	if n <= 0 {
		return CertifiedInterval{}, fmt.Errorf("%w: empty electorate", ErrInvalidParameter)
	}
	if err := ctx.Err(); err != nil {
		return CertifiedInterval{}, err
	}
	opts = opts.withDefaults()
	threshold := float64(n / 2)

	switch opts.Force {
	case TierExact:
		ps, err := materializeSorted(ctx, seq)
		if err != nil {
			return CertifiedInterval{}, err
		}
		return CertifiedInterval{Point: exactMajorityDP(ps), HalfWidth: 0, Tier: TierExact}, nil
	case TierFFT:
		ps, err := materializeSorted(ctx, seq)
		if err != nil {
			return CertifiedInterval{}, err
		}
		point, err := kernelMajority(ctx, ps, opts.Workers)
		if err != nil {
			return CertifiedInterval{}, err
		}
		return CertifiedInterval{Point: point, HalfWidth: FFTTierErrorBudget, Tier: TierFFT}, nil
	case TierNormal:
		st, err := streamMajorityStats(ctx, seq)
		if err != nil {
			return CertifiedInterval{}, err
		}
		return CertifyMajority(st, threshold), nil
	}

	// Auto selection: the O(n) moments pass runs first — it is never wasted,
	// because either its interval already satisfies the budget or its cost is
	// negligible next to the kernel tier it escalates to.
	st, err := streamMajorityStats(ctx, seq)
	if err != nil {
		return CertifiedInterval{}, err
	}
	ci := CertifyMajority(st, threshold)
	if opts.ErrorBudget > 0 && ci.HalfWidth <= opts.ErrorBudget {
		return ci, nil
	}
	if n <= opts.MaxExactN && (opts.CostBudget <= 0 || exactTierCost(n) <= opts.CostBudget) {
		ps, err := materializeSorted(ctx, seq)
		if err != nil {
			return CertifiedInterval{}, err
		}
		point, err := kernelMajority(ctx, ps, opts.Workers)
		if err != nil {
			return CertifiedInterval{}, err
		}
		tier := ClassifyExactTier(n)
		kci := CertifiedInterval{Point: point, Tier: tier}
		if tier == TierFFT {
			kci.HalfWidth = FFTTierErrorBudget
		}
		if opts.ErrorBudget > 0 && kci.HalfWidth > opts.ErrorBudget {
			return kci, ErrBudgetInfeasible
		}
		return kci, nil
	}
	return ci, ErrBudgetInfeasible
}

// streamMajorityStats runs the one-pass streaming moments fold over seq,
// holding one chunk at a time, with validation on the fly.
func streamMajorityStats(ctx context.Context, seq ChunkedSeq) (*SumStats, error) {
	var st SumStats
	var buf []float64
	nc := seq.NumChunks()
	for c := 0; c < nc; c++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		buf = seq.AppendChunk(buf[:0], c)
		for i, p := range buf {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return nil, fmt.Errorf("%w: chunk %d p[%d] = %v not in [0,1]", ErrInvalidParameter, c, i, p)
			}
			st.Add(1, p)
		}
	}
	if st.n != int64(seq.Len()) {
		return nil, fmt.Errorf("%w: chunks yielded %d values for Len() = %d", ErrInvalidParameter, st.n, seq.Len())
	}
	return &st, nil
}

// materializeSorted collects seq into one vector sorted ascending — the
// canonical competency order the exact kernels (and the election engine's
// P^D path) evaluate in, so a ladder kernel result is bit-identical whatever
// chunk layout produced the values.
func materializeSorted(ctx context.Context, seq ChunkedSeq) ([]float64, error) {
	n := seq.Len()
	ps := make([]float64, 0, n)
	nc := seq.NumChunks()
	for c := 0; c < nc; c++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ps = seq.AppendChunk(ps, c)
	}
	if len(ps) != n {
		return nil, fmt.Errorf("%w: chunks yielded %d values for Len() = %d", ErrInvalidParameter, len(ps), n)
	}
	if err := validateProbs(ps); err != nil {
		return nil, err
	}
	sort.Float64s(ps)
	return ps, nil
}

// exactMajorityDP is the ladder's zero-error reference: the plain quadratic
// DP with a compensated tail sum, no D&C, no FFT, whatever the size.
func exactMajorityDP(ps []float64) float64 {
	n := len(ps)
	f := make([]float64, n+1)
	pbDPInto(f, ps)
	return clamp01(Sum(f[n/2+1 : n+1]))
}

// kernelMajority runs the cost-model kernel (DP leaf or FFT D&C) on the
// fork-join evaluator with a cost-model-chosen worker budget. Bit-identical
// for every workers value.
func kernelMajority(ctx context.Context, ps []float64, workers int) (float64, error) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	pb, err := ws.PoissonBinomial(ps)
	if err != nil {
		return 0, err
	}
	return pb.ProbMajorityParallelWS(ctx, ws, ParallelWorkerBudget(len(ps), workers))
}
