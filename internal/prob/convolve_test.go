package prob

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"liquid/internal/rng"
)

// naiveDFT is the O(n^2) reference transform for validating fftCore.
func naiveDFT(re, im []float64) ([]float64, []float64) {
	n := len(re)
	outR := make([]float64, n)
	outI := make([]float64, n)
	for k := 0; k < n; k++ {
		var sr, si Accumulator
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(j) * float64(k) / float64(n)
			c, s := math.Cos(ang), math.Sin(ang)
			sr.Add(re[j]*c - im[j]*s)
			si.Add(re[j]*s + im[j]*c)
		}
		outR[k], outI[k] = sr.Sum(), si.Sum()
	}
	return outR, outI
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	s := rng.New(41)
	for lg := 1; lg <= 8; lg++ {
		n := 1 << lg
		re := make([]float64, n)
		im := make([]float64, n)
		for i := range re {
			re[i] = s.Float64() - 0.5
			im[i] = s.Float64() - 0.5
		}
		wantR, wantI := naiveDFT(re, im)
		fftCore(re, im, fftTablesFor(lg), lg)
		for i := range re {
			if math.Abs(re[i]-wantR[i]) > 1e-9 || math.Abs(im[i]-wantI[i]) > 1e-9 {
				t.Fatalf("n=%d bin %d: got (%g,%g) want (%g,%g)", n, i, re[i], im[i], wantR[i], wantI[i])
			}
		}
	}
}

func TestConvolveMatchesDirect(t *testing.T) {
	ws := NewWorkspace()
	s := rng.New(43)
	for _, sizes := range [][2]int{{1, 1}, {1, 7}, {5, 5}, {33, 64}, {100, 300}, {517, 291}} {
		a := make([]float64, sizes[0])
		b := make([]float64, sizes[1])
		for i := range a {
			a[i] = s.Float64()
		}
		for i := range b {
			b[i] = s.Float64()
		}
		want := make([]float64, len(a)+len(b)-1)
		convDirect(a, b, want)
		got := make([]float64, len(want))
		ws.merge(got, a, b)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9*float64(len(want)) {
				t.Fatalf("sizes %v: index %d: got %g want %g", sizes, i, got[i], want[i])
			}
		}
	}
}

// pmfTV is the total-variation distance between a divide-and-conquer PMF
// and its naive-DP reference.
func pmfTV(t *testing.T, voters []WeightedVoter, ws *Workspace) float64 {
	t.Helper()
	wm, err := NewWeightedMajority(voters)
	if err != nil {
		t.Fatal(err)
	}
	fast := wm.PMFWS(ws)
	return TotalVariation(fast, wm.PMFNaive())
}

// TestDivideAndConquerEquivalence is the seeded property test for the
// kernel overhaul: across random sizes and weights, the divide-and-conquer
// PMF must match the naive DP within 1e-9 total-variation distance.
func TestDivideAndConquerEquivalence(t *testing.T) {
	ws := NewWorkspace()
	s := rng.New(20240806)
	for trial := 0; trial < 60; trial++ {
		n := 1 + s.IntN(700)
		maxW := 1 + s.IntN(24)
		voters := make([]WeightedVoter, n)
		for i := range voters {
			voters[i] = WeightedVoter{Weight: 1 + s.IntN(maxW), P: s.Float64()}
		}
		if tv := pmfTV(t, voters, ws); tv > 1e-9 {
			t.Fatalf("trial %d (n=%d maxW=%d): TV %g > 1e-9", trial, n, maxW, tv)
		}
	}
}

func TestDivideAndConquerEdgeCases(t *testing.T) {
	ws := NewWorkspace()
	s := rng.New(7)

	t.Run("weight-1-only", func(t *testing.T) {
		// All weights 1: the weighted-majority kernel degenerates to the
		// Poisson binomial; both evaluators must agree with the PB DP.
		for _, n := range []int{1, 2, 63, 256, 701} {
			voters := make([]WeightedVoter, n)
			ps := make([]float64, n)
			for i := range voters {
				p := s.Float64()
				voters[i] = WeightedVoter{Weight: 1, P: p}
				ps[i] = p
			}
			if tv := pmfTV(t, voters, ws); tv > 1e-9 {
				t.Fatalf("n=%d: weighted TV %g > 1e-9", n, tv)
			}
			pb, err := NewPoissonBinomial(ps)
			if err != nil {
				t.Fatal(err)
			}
			if tv := TotalVariation(pb.PMFWS(ws), pb.PMFNaive()); tv > 1e-9 {
				t.Fatalf("n=%d: poisson-binomial TV %g > 1e-9", n, tv)
			}
		}
	})

	t.Run("single-voter", func(t *testing.T) {
		if tv := pmfTV(t, []WeightedVoter{{Weight: 17, P: 0.3}}, ws); tv != 0 {
			t.Fatalf("single voter: TV %g != 0", tv)
		}
	})

	t.Run("all-p-degenerate", func(t *testing.T) {
		// Every p in {0, 1}: the distribution is a point mass; the fast
		// evaluator must keep it exact to within clamping noise.
		for trial := 0; trial < 10; trial++ {
			n := 200 + s.IntN(400)
			voters := make([]WeightedVoter, n)
			for i := range voters {
				voters[i] = WeightedVoter{Weight: 1 + s.IntN(8), P: float64(s.IntN(2))}
			}
			if tv := pmfTV(t, voters, ws); tv > 1e-9 {
				t.Fatalf("trial %d (n=%d): TV %g > 1e-9", trial, n, tv)
			}
		}
	})

	t.Run("empty", func(t *testing.T) {
		pb, err := NewPoissonBinomial(nil)
		if err != nil {
			t.Fatal(err)
		}
		f := pb.PMFWS(ws)
		if len(f) != 1 || f[0] != 1 {
			t.Fatalf("empty PMF = %v, want [1]", f)
		}
	})
}

// TestWorkspaceReuse pins the workspace contract: repeated use of one
// workspace yields bit-identical results to fresh evaluation.
func TestWorkspaceReuse(t *testing.T) {
	ws := NewWorkspace()
	s := rng.New(99)
	for trial := 0; trial < 5; trial++ {
		n := 300 + s.IntN(300)
		voters := make([]WeightedVoter, n)
		for i := range voters {
			voters[i] = WeightedVoter{Weight: 1 + s.IntN(10), P: s.Float64()}
		}
		wm, err := NewWeightedMajority(voters)
		if err != nil {
			t.Fatal(err)
		}
		fresh := wm.PMF()
		reused := wm.PMFWS(ws)
		for i := range fresh {
			if fresh[i] != reused[i] {
				t.Fatalf("trial %d index %d: fresh %v != reused %v", trial, i, fresh[i], reused[i])
			}
		}
		if got, want := wm.ProbCorrectDecisionWS(ws), wm.ProbCorrectDecision(); got != want {
			t.Fatalf("trial %d: ProbCorrectDecisionWS %v != ProbCorrectDecision %v", trial, got, want)
		}
	}
}

// TestBorrowingConstructors covers the zero-copy Workspace constructors.
func TestBorrowingConstructors(t *testing.T) {
	ws := NewWorkspace()
	if _, err := ws.PoissonBinomial([]float64{0.5, 1.5}); err == nil {
		t.Fatal("expected validation error for p > 1")
	}
	if _, err := ws.WeightedMajority([]WeightedVoter{{Weight: 0, P: 0.5}}); err == nil {
		t.Fatal("expected validation error for weight 0")
	}
	ps := []float64{0.2, 0.8, 0.5}
	pb, err := ws.PoissonBinomial(ps)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewPoissonBinomial(ps)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pb.ProbMajorityWS(ws), ref.ProbMajority(); got != want {
		t.Fatalf("borrowed ProbMajority %v != copied %v", got, want)
	}
	voters := ws.VoterBuffer(3)
	voters = append(voters, WeightedVoter{3, 0.9}, WeightedVoter{1, 0.2}, WeightedVoter{2, 0.5})
	wm, err := ws.WeightedMajority(voters)
	if err != nil {
		t.Fatal(err)
	}
	refWM, err := NewWeightedMajority(voters)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := wm.ProbCorrectDecisionWS(ws), refWM.ProbCorrectDecision(); got != want {
		t.Fatalf("borrowed ProbCorrectDecision %v != copied %v", got, want)
	}
}

// FuzzConvolutionEquivalence feeds arbitrary voter encodings through every
// build of the convolution tree. The transient PMF must match the naive DP
// within 1e-9 total variation, and must be bit-identical to the fork-join
// build at 2 and 4 workers, to a fresh DeltaTree, and — after one random
// edit — to a DeltaTree patched by Update. On unit weights the weighted and
// the Poisson-binomial entry points must agree bit for bit. Wired into the
// `make check` fuzz-smoke stage.
func FuzzConvolutionEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(10), uint8(4))
	f.Add(uint64(7), uint16(300), uint8(1))
	f.Add(uint64(42), uint16(600), uint8(20))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, maxW uint8) {
		nv := int(n)%800 + 1
		mw := int(maxW)%32 + 1
		s := rng.New(seed)
		voters := make([]WeightedVoter, nv)
		for i := range voters {
			voters[i] = WeightedVoter{Weight: 1 + s.IntN(mw), P: s.Float64()}
		}
		wm, err := NewWeightedMajority(voters)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]float64(nil), wm.PMFWS(NewWorkspace())...)
		if tv := TotalVariation(want, wm.PMFNaive()); tv > 1e-9 {
			t.Fatalf("seed=%d n=%d maxW=%d: TV %g > 1e-9", seed, nv, mw, tv)
		}
		for _, workers := range []int{2, 4} {
			got, err := wmPMFParallel(context.Background(), NewWorkspace(), voters, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !equalBits(want, got) {
				t.Fatalf("seed=%d n=%d maxW=%d: fork-join at %d workers differs from transient", seed, nv, mw, workers)
			}
		}
		tree, err := NewDeltaTree(voters)
		if err != nil {
			t.Fatal(err)
		}
		if !equalBits(want, tree.PMF()) {
			t.Fatalf("seed=%d n=%d maxW=%d: fresh DeltaTree differs from transient", seed, nv, mw)
		}
		edited := mutate(rand.New(rand.NewSource(int64(seed))), voters, mw)
		if err := tree.Update(edited); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewDeltaTree(edited)
		if err != nil {
			t.Fatal(err)
		}
		if !equalBits(fresh.PMF(), tree.PMF()) {
			t.Fatalf("seed=%d n=%d maxW=%d: updated DeltaTree differs from a fresh build", seed, nv, mw)
		}

		ps := make([]float64, nv)
		for i := range voters {
			voters[i].Weight = 1
			ps[i] = voters[i].P
		}
		unit, err := NewWeightedMajority(voters)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := NewPoissonBinomial(ps)
		if err != nil {
			t.Fatal(err)
		}
		if !equalBits(unit.PMFWS(NewWorkspace()), pb.PMFWS(NewWorkspace())) {
			t.Fatalf("seed=%d n=%d: unit weights differ between the weighted and Poisson-binomial entry points", seed, nv)
		}
	})
}
