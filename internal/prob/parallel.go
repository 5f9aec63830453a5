package prob

// Fork-join mode of the convolution tree: independent subtrees of one
// convTree build run on concurrent goroutines.
//
// The contract is bit-identity with the sequential path, and it holds
// because fork-join is the same build, not a copy of it: the leaf-or-split
// decisions, split points and merges are the tree's own, whatever the worker
// budget. Each forked subtree computes into its own Workspace from a pool,
// so no goroutine ever touches another's arena or FFT scratch, and a
// Workspace never influences results, only allocation. Every merge happens
// in the parent after both children finish, as merge(left, right) in the
// parent's workspace, so the merged table is the same bytes regardless of
// which goroutine produced each operand or when it finished.
//
// The fork budget is a non-blocking token bucket: a node forks its right
// child only if a token is free, otherwise it recurses inline. Scheduling
// therefore affects only which subtrees run concurrently — never what any
// subtree computes. With workers <= 1 the entry points short-circuit to the
// sequential evaluator, so single-core callers pay no synchronization.
//
// Cancellation is cooperative: every node checks ctx before descending, and
// forked goroutines inherit ctx through the recursion (the ctxflow analyzer
// enforces that every goroutine launched in this package threads a context).

import (
	"context"
	"sync"
)

// parForkMinWeight is the smallest subtree support (PMF length) worth a
// goroutine: below it the fork/join overhead exceeds the subtree's work.
const parForkMinWeight = 1 << 10

// parWSPool holds subtree workspaces for the fork-join evaluator. Pooled
// workspaces retain their arenas and twiddle tables across calls; pooling
// affects allocation only, never results.
var parWSPool = sync.Pool{New: func() any { return NewWorkspace() }}

// forkBudget is the non-blocking token bucket bounding extra goroutines.
type forkBudget struct{ tokens chan struct{} }

// newForkBudget returns a budget allowing workers-1 concurrent forks (the
// calling goroutine is the first worker).
func newForkBudget(workers int) *forkBudget {
	extra := workers - 1
	if extra < 0 {
		extra = 0
	}
	b := &forkBudget{tokens: make(chan struct{}, extra)}
	for i := 0; i < extra; i++ {
		b.tokens <- struct{}{}
	}
	return b
}

// tryAcquire takes a token if one is free, never blocking: a saturated
// budget degrades to inline recursion instead of queueing.
func (b *forkBudget) tryAcquire() bool {
	select {
	case <-b.tokens:
		return true
	default:
		return false
	}
}

func (b *forkBudget) release() { b.tokens <- struct{}{} }

// forkResult carries a forked subtree's PMF, which lives in the (still
// borrowed) child workspace until the parent has merged it.
type forkResult struct {
	f   []float64
	err error
}

// spawn builds the subtree [lo, hi) on a new goroutine with a pooled
// workspace, holding a fork token until it finishes. The caller receives
// the result on the channel and returns the workspace to parWSPool once it
// has merged the result.
func (c convTree[V]) spawn(ctx context.Context, lo, hi int) (*Workspace, chan forkResult) {
	cws := parWSPool.Get().(*Workspace)
	cws.reset(3*(int(prefixAt(c.pw, hi)-prefixAt(c.pw, lo))+1) + 64)
	join := make(chan forkResult, 1)
	go func(ctx context.Context) {
		defer c.fork.release()
		f, _, err := c.build(ctx, cws, lo, hi)
		join <- forkResult{f: f, err: err}
	}(ctx)
	return cws, join
}

// PMFParallelWS computes the PMF with up to workers goroutines cooperating
// on the divide-and-conquer tree, into ws-owned memory. The result is
// bit-identical to PMFWS for every workers value and valid until the next
// kernel call on ws. workers <= 1 runs the sequential evaluator.
func (pb *PoissonBinomial) PMFParallelWS(ctx context.Context, ws *Workspace, workers int) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if workers <= 1 {
		return pb.PMFWS(ws), nil
	}
	return pbTree(pb.ps).eval(ctx, ws, workers)
}

// ProbMajorityParallelWS is ProbMajorityWS on the parallel evaluator:
// P[sum > n/2], bit-identical to the sequential value for any workers.
func (pb *PoissonBinomial) ProbMajorityParallelWS(ctx context.Context, ws *Workspace, workers int) (float64, error) {
	n := len(pb.ps)
	k := n/2 + 1
	if k > n {
		// A single-voter majority needs that voter: fall through to the
		// same clamped tail sum the sequential path takes.
		if workers > 1 {
			workers = 1
		}
	}
	if workers <= 1 {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return pb.ProbAtLeastWS(ws, k), nil
	}
	f, err := pb.PMFParallelWS(ctx, ws, workers)
	if err != nil {
		return 0, err
	}
	return clamp01(Sum(f[k : n+1])), nil
}
