package prob

import (
	"context"
	"math"
	"sync"
	"testing"

	"liquid/internal/rng"
)

// randomPs returns n probabilities in [lo, hi).
func randomPs(n int, lo, hi float64, s *rng.Stream) []float64 {
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = lo + (hi-lo)*s.Float64()
	}
	return ps
}

// randomVoters returns n voters with weights in [1, maxW].
func randomVoters(n, maxW int, s *rng.Stream) []WeightedVoter {
	vs := make([]WeightedVoter, n)
	for i := range vs {
		vs[i] = WeightedVoter{Weight: 1 + s.IntN(maxW), P: 0.2 + 0.6*s.Float64()}
	}
	return vs
}

// equalBits reports a[i] == b[i] bit-for-bit (NaN-free inputs).
func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPBPMFParallelBitIdentical checks the Poisson-binomial parallel
// evaluator against the sequential one across sizes straddling every
// cost-model branch, for several worker budgets.
func TestPBPMFParallelBitIdentical(t *testing.T) {
	ctx := context.Background()
	s := rng.New(41)
	for _, n := range []int{1, 5, dcMinLeaf - 1, dcMinLeaf, 257, 1000, 2048, 4097} {
		ps := randomPs(n, 0.05, 0.95, s)
		pb, err := NewPoissonBinomial(ps)
		if err != nil {
			t.Fatal(err)
		}
		seqWS := NewWorkspace()
		want := append([]float64(nil), pb.PMFWS(seqWS)...)
		for _, workers := range []int{1, 2, 4, 16} {
			parWS := NewWorkspace()
			got, err := pb.PMFParallelWS(ctx, parWS, workers)
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if !equalBits(want, got) {
				t.Fatalf("n=%d workers=%d: parallel PMF differs from sequential", n, workers)
			}
		}
	}
}

// wmPMFParallel runs the weighted-majority tree in fork-join mode. No
// exported entry point reaches it, but it is the same build as the
// Poisson-binomial one, so weighted inputs keep their fork-join coverage.
func wmPMFParallel(ctx context.Context, ws *Workspace, voters []WeightedVoter, workers int) ([]float64, error) {
	return ws.wmTree(voters).eval(ctx, ws, workers)
}

// TestWMPMFParallelBitIdentical is the weighted-majority analogue, run on
// the tree's internal fork-join path.
func TestWMPMFParallelBitIdentical(t *testing.T) {
	ctx := context.Background()
	s := rng.New(43)
	for _, n := range []int{1, 17, 64, 301, 1000} {
		for _, maxW := range []int{1, 7, 40} {
			wm, err := NewWeightedMajority(randomVoters(n, maxW, s))
			if err != nil {
				t.Fatal(err)
			}
			want := append([]float64(nil), wm.PMFWS(NewWorkspace())...)
			for _, workers := range []int{1, 3, 8} {
				got, err := wmPMFParallel(ctx, NewWorkspace(), wm.voters, workers)
				if err != nil {
					t.Fatalf("n=%d maxW=%d workers=%d: %v", n, maxW, workers, err)
				}
				if !equalBits(want, got) {
					t.Fatalf("n=%d maxW=%d workers=%d: parallel PMF differs", n, maxW, workers)
				}
			}
		}
	}
}

// TestPMFParallelCancellation checks the fork-join tree aborts with ctx's
// error instead of completing.
func TestPMFParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := rng.New(47)
	pb, err := NewPoissonBinomial(randomPs(4000, 0.1, 0.9, s))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pb.PMFParallelWS(ctx, NewWorkspace(), 4); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	wm, err := NewWeightedMajority(randomVoters(2000, 3, s))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wmPMFParallel(ctx, NewWorkspace(), wm.voters, 4); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestWorkspacePoolHammer is the concurrent-pooling stress test: many
// goroutines run parallel and sequential evaluations simultaneously,
// sharing the subtree workspace pool, and every result must be
// bit-identical to a reference computed up front. Run under -race this
// doubles as the arena-aliasing check — if any pooled workspace were
// handed to two subtrees at once, the racing writes to its arena would
// both trip the detector and corrupt a PMF.
func TestWorkspacePoolHammer(t *testing.T) {
	ctx := context.Background()
	s := rng.New(53)
	const inputs = 6
	type testCase struct {
		pb  *PoissonBinomial
		wm  *WeightedMajority
		pbF []float64
		wmF []float64
	}
	cases := make([]testCase, inputs)
	ref := NewWorkspace()
	for i := range cases {
		pb, err := NewPoissonBinomial(randomPs(1500+137*i, 0.1, 0.9, s))
		if err != nil {
			t.Fatal(err)
		}
		wm, err := NewWeightedMajority(randomVoters(400+61*i, 5, s))
		if err != nil {
			t.Fatal(err)
		}
		cases[i] = testCase{
			pb:  pb,
			wm:  wm,
			pbF: append([]float64(nil), pb.PMFWS(ref)...),
		}
		cases[i].wmF = append([]float64(nil), wm.PMFWS(ref)...)
	}

	const goroutines = 8
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ws := NewWorkspace()
			for r := 0; r < rounds; r++ {
				c := cases[(g+r)%inputs]
				workers := 1 + (g+r)%4
				got, err := c.pb.PMFParallelWS(ctx, ws, workers)
				if err == nil && !equalBits(c.pbF, got) {
					err = errDiff
				}
				if err == nil {
					var wmGot []float64
					wmGot, err = wmPMFParallel(ctx, ws, c.wm.voters, workers)
					if err == nil && !equalBits(c.wmF, wmGot) {
						err = errDiff
					}
				}
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// errDiff marks a bit-level divergence in the hammer test.
var errDiff = errMismatch{}

type errMismatch struct{}

func (errMismatch) Error() string { return "parallel PMF differs from sequential reference" }

// BenchmarkPBPMFParallel measures the parallel evaluator at the sizes the
// BENCH trajectory tracks. On a single-core host the parallel tree should
// track the sequential time (budget degrades to inline recursion); on
// multi-core hosts the subtree fan-out shows up as a speedup.
func BenchmarkPBPMFParallel(b *testing.B) {
	ctx := context.Background()
	s := rng.New(59)
	for _, n := range []int{2000, 20000} {
		ps := randomPs(n, 0.1, 0.9, s)
		pb, err := NewPoissonBinomial(ps)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			b.Run(benchName(n, workers), func(b *testing.B) {
				ws := NewWorkspace()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := pb.PMFParallelWS(ctx, ws, workers); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func benchName(n, workers int) string {
	switch {
	case n == 2000 && workers == 1:
		return "n2000w1"
	case n == 2000 && workers == 4:
		return "n2000w4"
	case n == 20000 && workers == 1:
		return "n20000w1"
	default:
		return "n20000w4"
	}
}
