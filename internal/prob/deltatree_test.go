package prob

import (
	"math"
	"math/rand"
	"testing"
)

// deltaRandomVoters returns n voters with weights in [1, maxW] and random ps,
// including exact 0 and 1 endpoints occasionally.
func deltaRandomVoters(r *rand.Rand, n, maxW int) []WeightedVoter {
	vs := make([]WeightedVoter, n)
	for i := range vs {
		p := r.Float64()
		switch r.Intn(12) {
		case 0:
			p = 0
		case 1:
			p = 1
		}
		vs[i] = WeightedVoter{Weight: 1 + r.Intn(maxW), P: p}
	}
	return vs
}

func pmfBitsEqual(a, b []float64) bool {
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

// requireTreeMatchesScratch checks the tree against a from-scratch
// transient evaluation of the same voter order: PMF bytes, the decision
// probability, and an off-center tail.
func requireTreeMatchesScratch(t *testing.T, tree *DeltaTree, voters []WeightedVoter) {
	t.Helper()
	ws := NewWorkspace()
	wm, err := ws.WeightedMajority(voters)
	if err != nil {
		t.Fatalf("WeightedMajority: %v", err)
	}
	want := append([]float64(nil), wm.PMFWS(ws)...)
	if !pmfBitsEqual(tree.PMF(), want) {
		t.Fatalf("n=%d: tree PMF differs from from-scratch PMFWS", len(voters))
	}
	if got, ref := tree.ProbCorrectDecision(), wm.ProbCorrectDecisionWS(ws); math.Float64bits(got) != math.Float64bits(ref) {
		t.Fatalf("n=%d: ProbCorrectDecision %v != from-scratch %v", len(voters), got, ref)
	}
	th := tree.TotalWeight() / 3
	if got, ref := tree.ProbAbove(th), wm.ProbAboveWS(ws, th); math.Float64bits(got) != math.Float64bits(ref) {
		t.Fatalf("n=%d: ProbAbove(%d) %v != from-scratch %v", len(voters), th, got, ref)
	}
}

func TestDeltaTreeMatchesFromScratch(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	// Sizes straddle dcMinLeaf and the FFT crossover; maxW up to 60 forces
	// deep trees with FFT merges at the top and DP leaves below.
	for _, n := range []int{0, 1, 2, 5, dcMinLeaf - 1, dcMinLeaf, 70, 257, 1024} {
		for _, maxW := range []int{1, 3, 60} {
			voters := deltaRandomVoters(r, n, maxW)
			tree, err := NewDeltaTree(voters)
			if err != nil {
				t.Fatalf("NewDeltaTree(n=%d): %v", n, err)
			}
			requireTreeMatchesScratch(t, tree, voters)
		}
	}
}

func TestDeltaTreeEmptyAndBounds(t *testing.T) {
	tree, err := NewDeltaTree(nil)
	if err != nil {
		t.Fatalf("NewDeltaTree(nil): %v", err)
	}
	if tree.Len() != 0 || tree.TotalWeight() != 0 {
		t.Fatalf("empty tree: Len=%d TotalWeight=%d", tree.Len(), tree.TotalWeight())
	}
	// All abstained: the correct option never strictly wins.
	if got := tree.ProbCorrectDecision(); got != 0 {
		t.Fatalf("empty ProbCorrectDecision = %v, want 0", got)
	}
	if got := tree.ProbAbove(-1); got != 1 {
		t.Fatalf("ProbAbove(-1) = %v, want 1", got)
	}
	if _, err := NewDeltaTree([]WeightedVoter{{Weight: 0, P: 0.5}}); err == nil {
		t.Fatal("weight 0 accepted")
	}
	if _, err := NewDeltaTree([]WeightedVoter{{Weight: 1, P: math.NaN()}}); err == nil {
		t.Fatal("NaN p accepted")
	}
	if err := tree.Update([]WeightedVoter{{Weight: 1, P: 2}}); err == nil {
		t.Fatal("Update accepted p > 1")
	}
	// A failed Update must leave the tree intact.
	if tree.Len() != 0 || tree.ProbCorrectDecision() != 0 {
		t.Fatal("failed Update mutated the tree")
	}
}

// TestDeltaTreeWeightOnePoissonBinomial checks the all-weight-1 coincidence
// the P^D path relies on: the tree's decision probability equals the
// Poisson-binomial majority probability bit for bit.
func TestDeltaTreeWeightOnePoissonBinomial(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 33, 100, 501} {
		voters := deltaRandomVoters(r, n, 1)
		ps := make([]float64, n)
		for i, v := range voters {
			ps[i] = v.P
		}
		tree, err := NewDeltaTree(voters)
		if err != nil {
			t.Fatalf("NewDeltaTree: %v", err)
		}
		ws := NewWorkspace()
		pb, err := ws.PoissonBinomial(ps)
		if err != nil {
			t.Fatalf("PoissonBinomial: %v", err)
		}
		want := pb.ProbMajorityWS(ws)
		if got := tree.ProbCorrectDecision(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: tree %v != PoissonBinomial majority %v", n, got, want)
		}
	}
}

// TestConvolutionTreeShape pins the tree's leaf-or-split decisions: a fresh
// build's node counts on fixed weight profiles. The values are literals so
// that a drift in the split rule, which every build mode would share and the
// cross-mode equivalence checks therefore cannot see, fails here. The heavy
// profile scatters a few heavy voters (weights up to 2001) among light ones,
// the shape delegation produces.
func TestConvolutionTreeShape(t *testing.T) {
	unit := func(n int) []WeightedVoter {
		vs := make([]WeightedVoter, n)
		for i := range vs {
			vs[i] = WeightedVoter{Weight: 1, P: 0.5}
		}
		return vs
	}
	heavy := make([]WeightedVoter, 2000)
	for i := range heavy {
		heavy[i] = WeightedVoter{Weight: 1 + 2000/(1+(i*7919)%2000), P: 0.5}
	}
	for _, tc := range []struct {
		name           string
		voters         []WeightedVoter
		leaves, merges uint64
	}{
		{"unit31", unit(31), 1, 0},
		{"unit32", unit(32), 1, 0},
		{"unit300", unit(300), 1, 0},
		{"unit1000", unit(1000), 8, 7},
		{"unit4097", unit(4097), 16, 15},
		{"heavy2000", heavy, 6, 5},
	} {
		tree, err := NewDeltaTree(tc.voters)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		st := tree.Stats()
		if st.RecomputedLeaves != tc.leaves || st.RecomputedMerges != tc.merges {
			t.Errorf("%s: %d leaves, %d merges; want %d, %d", tc.name, st.RecomputedLeaves, st.RecomputedMerges, tc.leaves, tc.merges)
		}
	}
}

// mutate applies one random edit kind to a copy of voters.
func mutate(r *rand.Rand, voters []WeightedVoter, maxW int) []WeightedVoter {
	out := append([]WeightedVoter(nil), voters...)
	kind := r.Intn(5)
	if len(out) == 0 {
		kind = 2
	}
	switch kind {
	case 0: // single-voter competency change
		out[r.Intn(len(out))].P = r.Float64()
	case 1: // single-voter weight change
		out[r.Intn(len(out))].Weight = 1 + r.Intn(maxW)
	case 2: // insert
		i := r.Intn(len(out) + 1)
		v := WeightedVoter{Weight: 1 + r.Intn(maxW), P: r.Float64()}
		out = append(out[:i], append([]WeightedVoter{v}, out[i:]...)...)
	case 3: // remove
		i := r.Intn(len(out))
		out = append(out[:i], out[i+1:]...)
	default: // contiguous block rewrite
		i := r.Intn(len(out))
		k := 1 + r.Intn(4)
		for j := i; j < len(out) && j < i+k; j++ {
			out[j].P = r.Float64()
		}
	}
	return out
}

func TestDeltaTreeUpdateSequences(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 6; trial++ {
		n := 40 + r.Intn(300)
		maxW := []int{1, 4, 40}[trial%3]
		voters := deltaRandomVoters(r, n, maxW)
		tree, err := NewDeltaTree(voters)
		if err != nil {
			t.Fatalf("NewDeltaTree: %v", err)
		}
		for step := 0; step < 25; step++ {
			voters = mutate(r, voters, maxW)
			if err := tree.Update(voters); err != nil {
				t.Fatalf("trial %d step %d: Update: %v", trial, step, err)
			}
			requireTreeMatchesScratch(t, tree, voters)
		}
		st := tree.Stats()
		if st.Patches == 0 {
			t.Fatalf("trial %d: no Update took the patch path (stats %+v)", trial, st)
		}
		// A single-leaf tree (small total weight) has no subtrees to
		// reuse; only demand reuse when the tree has internal structure.
		if st.ReusedNodes == 0 && tree.root.left != nil {
			t.Fatalf("trial %d: patching reused no subtrees (stats %+v)", trial, st)
		}
	}
}

// TestDeltaTreeSingleEditReuse checks the O(log n) claim structurally: a
// one-voter edit in a large tree recomputes only the root path, so the
// overwhelming majority of nodes are adopted unchanged.
func TestDeltaTreeSingleEditReuse(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	voters := deltaRandomVoters(r, 2000, 1)
	tree, err := NewDeltaTree(voters)
	if err != nil {
		t.Fatalf("NewDeltaTree: %v", err)
	}
	before := tree.Stats()
	voters[1234].P = r.Float64()
	if err := tree.Update(voters); err != nil {
		t.Fatalf("Update: %v", err)
	}
	st := tree.Stats()
	if st.Patches != before.Patches+1 {
		t.Fatalf("single edit did not patch: %+v", st)
	}
	recomputed := (st.RecomputedLeaves - before.RecomputedLeaves) +
		(st.RecomputedMerges - before.RecomputedMerges)
	if recomputed > 24 {
		t.Fatalf("single edit recomputed %d nodes, want a root path (<= 24)", recomputed)
	}
	requireTreeMatchesScratch(t, tree, voters)
}

func TestDeltaTreeRebuildThreshold(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	voters := deltaRandomVoters(r, 128, 3)
	tree, err := NewDeltaTree(voters)
	if err != nil {
		t.Fatalf("NewDeltaTree: %v", err)
	}
	// Rewriting every voter must cross the 2*changed >= len threshold.
	repl := deltaRandomVoters(r, 128, 3)
	if err := tree.Update(repl); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if st := tree.Stats(); st.Rebuilds == 0 {
		t.Fatalf("full rewrite did not rebuild: %+v", st)
	}
	requireTreeMatchesScratch(t, tree, repl)
}

func TestDeltaTreeClonePersistence(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	voters := deltaRandomVoters(r, 300, 5)
	tree, err := NewDeltaTree(voters)
	if err != nil {
		t.Fatalf("NewDeltaTree: %v", err)
	}
	clone := tree.Clone()
	wantPMF := append([]float64(nil), tree.PMF()...)

	mutated := append([]WeightedVoter(nil), voters...)
	mutated[7].P = r.Float64()
	if err := clone.Update(mutated); err != nil {
		t.Fatalf("clone Update: %v", err)
	}
	// The original must be untouched by the clone's update...
	if !pmfBitsEqual(tree.PMF(), wantPMF) {
		t.Fatal("updating a clone mutated the original tree's PMF")
	}
	requireTreeMatchesScratch(t, tree, voters)
	// ...and vice versa.
	if err := tree.Update(deltaRandomVoters(r, 300, 5)); err != nil {
		t.Fatalf("original Update: %v", err)
	}
	requireTreeMatchesScratch(t, clone, mutated)
}

// TestDeltaTreeSignedZero guards the Float64bits diff rule: flipping +0 to
// -0 changes no value but must still force a recompute, because downstream
// float ops can propagate the sign into different result bytes.
func TestDeltaTreeSignedZero(t *testing.T) {
	voters := make([]WeightedVoter, dcMinLeaf*2)
	for i := range voters {
		voters[i] = WeightedVoter{Weight: 1, P: 0.25}
	}
	voters[3].P = 0
	tree, err := NewDeltaTree(voters)
	if err != nil {
		t.Fatalf("NewDeltaTree: %v", err)
	}
	neg := append([]WeightedVoter(nil), voters...)
	neg[3].P = math.Copysign(0, -1)
	if err := tree.Update(neg); err != nil {
		t.Fatalf("Update: %v", err)
	}
	requireTreeMatchesScratch(t, tree, neg)
}

func TestDeltaUpdateCost(t *testing.T) {
	if c := DeltaUpdateCost(0); c != 1 {
		t.Fatalf("DeltaUpdateCost(0) = %d, want 1", c)
	}
	prev := int64(0)
	for _, w := range []int{1, 10, 100, 2000, 20000} {
		c := DeltaUpdateCost(w)
		if c <= 0 || c < prev {
			t.Fatalf("DeltaUpdateCost(%d) = %d not positive/monotone", w, c)
		}
		prev = c
	}
	// The patch bound must stay well under the full evaluation cost for
	// large n — otherwise the serving cost class would never prefer deltas.
	if full, patch := WeightedMajorityDPCost(2000, 2000), DeltaUpdateCost(2000); patch*10 > full {
		t.Fatalf("DeltaUpdateCost(2000)=%d not <= 1/10 of DP cost %d", patch, full)
	}
}
