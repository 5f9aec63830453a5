package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"liquid/internal/core"
	"liquid/internal/election"
	"liquid/internal/graph"
	"liquid/internal/prob"
	"liquid/internal/rng"
	"liquid/internal/server"
)

// The serve-whatif mix: /v1/whatif on a few retained 2000-voter bases.
// Most requests are delta what-ifs (repoints, some with a competency edit)
// against a base, which the daemon serves from its retained-scenario cache;
// the rest score a fresh delegation profile on a base's instance from
// scratch, exactly or through the certified ladder with an error budget.
// One request in 50 is a budgeted what-if on a 20000-voter electorate,
// where decode and the ladder's kernel tier do the work: a tail class about
// ten times the others' latency, so that p99_ms measures its median rather
// than the host's scheduling hiccups, which on requests of a few
// milliseconds it otherwise did (its spread over ten runs reached 0.3-0.7
// of the median).
const (
	whatIfN        = 2000
	whatIfLargeN   = 20000
	whatIfBases    = 3 // of whatIfN voters; the large electorate is base whatIfBases
	whatIfMixSize  = 300
	whatIfBudget   = 1e-3
	whatIfDelegate = 0.4  // share of voters delegating in a profile
	whatIfPMTol    = 1e-9 // |pm - naive weighted-majority DP|
	// oracleSlack is the naive DPs' own rounding, allowed on top of a
	// certified half-width.
	oracleSlack = 1e-12
	// costRate is the daemon's default DP units per second; the ladder's
	// cost budget is derived from the deadline at this rate.
	costRate = 50e6
)

// whatIfBody is what the benchmark knows about one what-if request.
type whatIfBody struct {
	kind   string // delta, plain, budgeted, large
	base   int
	deleg  []int // the profile sent (the base profile for delta requests)
	deltas []server.DeltaSpec
}

type whatIfMix struct {
	comps  [][]float64 // per base
	deleg  [][]int     // per base
	bodies []whatIfBody
	reqs   []*request
	warm   []*request
}

// upwardProfile draws a delegation profile in which each voter but the last
// delegates with probability whatIfDelegate to a uniformly chosen
// higher-numbered voter. Every chain climbs, so no profile has a cycle.
func upwardProfile(s *rng.Stream, n int) []int {
	d := make([]int, n)
	for v := range d {
		d[v] = core.NoDelegate
		if v < n-1 && s.Float64() < whatIfDelegate {
			d[v] = v + 1 + s.IntN(n-v-1)
		}
	}
	return d
}

func buildWhatIfMix(seed uint64) (*whatIfMix, error) {
	root := rng.New(seed).DeriveString("perfbench/serve-whatif")
	m := &whatIfMix{}
	for b := 0; b <= whatIfBases; b++ {
		n := whatIfN
		if b == whatIfBases {
			n = whatIfLargeN
		}
		s := root.DeriveString("base").Derive(uint64(b))
		m.comps = append(m.comps, competencies(s.DeriveString("p"), n))
		m.deleg = append(m.deleg, upwardProfile(s.DeriveString("delegations"), n))
	}
	// The make-up is fixed — kinds cycle in blocks of 50 (35 delta, 7 plain,
	// 7 budgeted, 1 large budgeted), bases and repoint counts cycle, and
	// every third delta in a block of ten edits a competency — so every seed
	// weighs them alike; the seed draws competencies, profiles, voters and
	// targets.
	for j, nd := 0, 0; j < whatIfMixSize; j++ {
		s := root.DeriveString("body").Derive(uint64(j))
		b := whatIfBody{base: j % whatIfBases}
		switch k := j % 50; {
		case k < 35:
			b.kind = "delta"
			b.deleg = m.deleg[b.base]
			for k := 1 + nd%3; k > 0; k-- {
				v := s.IntN(whatIfN)
				to := core.NoDelegate
				if v+1 < whatIfN && s.Float64() < 0.7 {
					to = v + 1 + s.IntN(whatIfN-v-1)
				}
				b.deltas = append(b.deltas, server.DeltaSpec{Kind: "repoint", Voter: v, Target: &to})
			}
			if nd%10 < 3 {
				b.deltas = append(b.deltas, server.DeltaSpec{Kind: "competency", Voter: s.IntN(whatIfN), P: 0.3 + 0.4*s.Float64()})
			}
			nd++
		case k < 42:
			b.kind = "plain"
			b.deleg = upwardProfile(s, whatIfN)
		case k < 49:
			b.kind = "budgeted"
			b.deleg = upwardProfile(s, whatIfN)
		default:
			b.kind = "large"
			b.base = whatIfBases
			b.deleg = upwardProfile(s, whatIfLargeN)
		}
		req := server.WhatIfRequest{
			Instance:    server.InstanceSpec{N: len(m.comps[b.base]), Complete: true, P: m.comps[b.base]},
			Delegations: b.deleg,
			Deltas:      b.deltas,
			DeadlineMS:  deadlineMS,
		}
		if b.kind == "budgeted" || b.kind == "large" {
			req.ErrorBudget = whatIfBudget
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		m.bodies = append(m.bodies, b)
		m.reqs = append(m.reqs, &request{kind: b.kind, path: "/v1/whatif", body: body})
	}
	// Warm-up: the first delta request on each base, which makes the
	// daemon build that base's retained scenario, and the first request on
	// the large electorate.
	seen := make(map[int]bool)
	for j, b := range m.bodies {
		if (b.kind == "delta" || b.kind == "large") && !seen[b.base] {
			seen[b.base] = true
			m.warm = append(m.warm, m.reqs[j])
		}
	}
	return m, nil
}

// final applies body j's deltas to copies of its base and returns the
// post-delta competencies and profile.
func (m *whatIfMix) final(j int) ([]float64, []int) {
	b := m.bodies[j]
	ps := append([]float64(nil), m.comps[b.base]...)
	d := append([]int(nil), b.deleg...)
	for _, dl := range b.deltas {
		switch dl.Kind {
		case "repoint":
			d[dl.Voter] = *dl.Target
		case "competency":
			ps[dl.Voter] = dl.P
		}
	}
	return ps, d
}

// resolveUpward resolves an upward profile by one pass from the top voter
// down, returning each sink's weight (0 for delegators).
func resolveUpward(d []int) []int {
	sink := make([]int, len(d))
	w := make([]int, len(d))
	for v := len(d) - 1; v >= 0; v-- {
		sink[v] = v
		if d[v] != core.NoDelegate {
			sink[v] = sink[d[v]]
		}
		w[sink[v]]++
	}
	return w
}

// naiveProfilePM is the naive weighted-majority DP over the sinks of an
// upward profile.
func naiveProfilePM(ps []float64, d []int) float64 {
	var voters []weighted
	for v, w := range resolveUpward(d) {
		if w > 0 {
			voters = append(voters, weighted{w: w, p: ps[v]})
		}
	}
	return naiveMajorityWM(voters)
}

func runServeWhatIf(ctx context.Context, e *env, r *report) error {
	m, err := buildWhatIfMix(e.seed)
	if err != nil {
		return err
	}
	if e.trace {
		st, err := traceDaemon(ctx, e, r, "serve-whatif", m.warm, m.reqs)
		if err != nil {
			return err
		}
		if err := m.verify(r, st.base.answers); err != nil {
			return err
		}
		st.layerMetrics(r)
		return m.replay(ctx, e, r, st.base)
	}
	d, setup, err := setupRepeated(e, m.warm, r)
	if err != nil {
		return err
	}
	l, err := timedPhase(ctx, r, d, m.reqs, e.seconds)
	if err == nil {
		err = l.endToEnd(r, d, m.reqs, setup)
	}
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	return m.verify(r, l.answers)
}

// verify checks every distinct answer. Delta answers must equal, byte for
// byte, exact scoring of the post-delta election from scratch. Plain
// answers must match the naive DPs. Budgeted answers must hold the naive
// DPs' values within their certified half-widths.
func (m *whatIfMix) verify(r *report, answers [][]byte) error {
	pdOracle := make(map[int]float64) // per base; deltas may edit competencies
	checked := make(map[string]int)
	defer func() {
		fmt.Fprintf(os.Stderr, "perfbench: serve-whatif: checked %d delta answers byte for byte against scoring from scratch, %d plain and %d budgeted against the naive DPs\n", checked["delta"], checked["plain"], checked["budgeted"]+checked["large"])
	}()
	for j, body := range answers {
		if body == nil {
			continue
		}
		b := m.bodies[j]
		checked[b.kind]++
		ps, d := m.final(j)
		if b.kind == "delta" {
			want, err := scratchWhatIf(ps, d, len(b.deltas))
			if err != nil {
				return err
			}
			r.check(string(want) == string(body), "whatif %d: delta answer differs from scoring from scratch:\n got %s\nwant %s", j, body, want)
			continue
		}
		var resp server.WhatIfResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			r.check(false, "whatif %d: undecodable answer: %v", j, err)
			continue
		}
		pd, ok := pdOracle[b.base]
		if !ok {
			pd = naiveMajorityPB(ps)
			pdOracle[b.base] = pd
		}
		pm := naiveProfilePM(ps, d)
		r.check(resp.Gain == resp.PM-resp.PD && resp.TotalWeight == len(ps), "whatif %d: gain %v != pm - pd, total weight %d", j, resp.Gain, resp.TotalWeight)
		if b.kind == "plain" {
			r.check(!resp.Approximate && math.Abs(resp.PM-pm) <= whatIfPMTol, "whatif %d: pm %v, naive DP %v", j, resp.PM, pm)
			r.check(math.Abs(resp.PD-pd) <= evalPDTol, "whatif %d: pd %v, naive DP %v", j, resp.PD, pd)
			continue
		}
		r.check(resp.PDTier != "" && resp.PMTier != "", "whatif %d: budgeted answer without tiers", j)
		r.check(math.Abs(resp.PD-pd) <= resp.PDHalfWidth+oracleSlack, "whatif %d: pd %v ± %v (%s) misses the naive DP %v", j, resp.PD, resp.PDHalfWidth, resp.PDTier, pd)
		r.check(math.Abs(resp.PM-pm) <= resp.PMHalfWidth+oracleSlack, "whatif %d: pm %v ± %v (%s) misses the naive DP %v", j, resp.PM, resp.PMHalfWidth, resp.PMTier, pm)
	}
	return nil
}

// scratchWhatIf scores a post-delta election with the exact kernels on a
// freshly built instance and renders the answer the daemon must give.
func scratchWhatIf(ps []float64, d []int, deltas int) ([]byte, error) {
	in, err := core.NewInstance(graph.NewComplete(len(ps)), ps)
	if err != nil {
		return nil, err
	}
	dg := core.NewDelegationGraph(len(d))
	for v, t := range d {
		if t != core.NoDelegate {
			if err := dg.SetDelegate(v, t); err != nil {
				return nil, err
			}
		}
	}
	res, err := dg.Resolve()
	if err != nil {
		return nil, err
	}
	pm, err := election.ResolutionProbabilityExact(in, res)
	if err != nil {
		return nil, err
	}
	pd, err := election.DirectProbabilityExact(in)
	if err != nil {
		return nil, err
	}
	return marshalLine(server.WhatIfResponse{
		PM: pm, PD: pd, Gain: pm - pd,
		Sinks: len(res.Sinks), MaxWeight: res.MaxWeight, TotalWeight: res.TotalWeight,
		Delegators: res.Delegators, LongestChain: res.LongestChain, DeltasApplied: deltas,
	})
}

// scenarioEntry is the replay's stand-in for the daemon's retained
// scenario of one base.
type scenarioEntry struct {
	plan *election.Plan
	base *core.DelegationGraph
	sc   *election.Scenario
}

// replay runs every body of the mix once in process through the public
// functions the handler calls, in its order — decode, resolve, then the
// retained scenario, the exact kernels or the ladder, then encode — with a
// span around each.
func (m *whatIfMix) replay(ctx context.Context, e *env, r *report, base *loopResult) error {
	t := newTracer()
	chain := make([]time.Duration, len(m.reqs))
	entries := make([]*scenarioEntry, whatIfBases)
	units := 0.0
	tiers := make(map[prob.Tier]int)
	for j, rq := range m.reqs {
		op := int64(j + 1)
		b := m.bodies[j]
		t0 := time.Now()
		root := t.begin(op, 0, "server.request")
		var parsed *server.ParsedWhatIf
		var aerr *server.Error
		t.do(op, root, "server.decode", func() { parsed, aerr = server.ParseWhatIfRequest(rq.body) })
		if aerr != nil {
			return fmt.Errorf("replay %d: %v", j, aerr)
		}
		in := parsed.FinalInstance
		var res *core.Resolution
		var err error
		t.do(op, root, "core.resolve", func() { res, err = parsed.FinalGraph.Resolve() })
		if err != nil {
			return err
		}
		resp := server.WhatIfResponse{
			Sinks: len(res.Sinks), MaxWeight: res.MaxWeight, TotalWeight: res.TotalWeight,
			Delegators: res.Delegators, LongestChain: res.LongestChain, DeltasApplied: len(parsed.Deltas),
		}
		switch b.kind {
		case "delta":
			units += float64(server.EstimateWhatIfDeltaCost(in.N(), len(parsed.Deltas), exactCostLimit))
			t.do(op, root, "election.scenario", func() {
				resp.PM, resp.PD, err = replayScenario(&entries[b.base], parsed)
			})
		case "plain":
			units += float64(server.EstimateCost(in.N(), 1, exactCostLimit))
			t.do(op, root, "prob.pm_exact", func() { resp.PM, err = election.ResolutionProbabilityExact(in, res) })
			if err == nil {
				t.do(op, root, "prob.pd_exact", func() { resp.PD, err = election.DirectProbabilityExact(in) })
			}
		case "budgeted", "large":
			units += float64(server.EstimateLadderCost(in.N(), whatIfBudget))
			var pd prob.CertifiedInterval
			var pm prob.CertifiedInterval
			t.do(op, root, "prob.ladder", func() {
				pd, err = prob.LadderMajority(ctx, prob.SliceSeq{PS: in.Competencies()}, prob.LadderOptions{
					ErrorBudget: whatIfBudget,
					CostBudget:  int64(0.8 * deadlineMS / 1000 * costRate),
					Workers:     1,
				})
				var st prob.SumStats
				for _, sk := range res.Sinks {
					st.Add(float64(res.Weight[sk]), in.Competency(sk))
				}
				pm = prob.CertifyMajority(&st, float64(res.TotalWeight/2))
			})
			if err != nil {
				return err
			}
			tiers[pd.Tier]++
			// The daemon escalates P^M to the exact DP only up to 4096
			// voters; above, the certified interval stands.
			if pm.HalfWidth > whatIfBudget && in.N() <= 4096 {
				t.do(op, root, "prob.pm_exact", func() { pm.Point, err = election.ResolutionProbabilityExact(in, res) })
				pm.HalfWidth, pm.Tier = 0, prob.TierExact
			}
			resp.PM, resp.PD = pm.Point, pd.Point
			resp.PMTier, resp.PMHalfWidth = pm.Tier.String(), pm.HalfWidth
			resp.PDTier, resp.PDHalfWidth = pd.Tier.String(), pd.HalfWidth
		}
		if err != nil {
			return fmt.Errorf("replay %d: %w", j, err)
		}
		resp.Gain = resp.PM - resp.PD
		t.do(op, root, "server.encode", func() { _, err = marshalLine(resp) })
		t.end(root)
		chain[j] = time.Since(t0)
		if err != nil {
			return err
		}
	}
	layers := selfTimes(t.spans)
	for metric, span := range map[string]string{
		"server.decode_ms":     "server.decode",
		"server.encode_ms":     "server.encode",
		"core.resolve_ms":      "core.resolve",
		"election.scenario_ms": "election.scenario",
		"prob.pm_exact_ms":     "prob.pm_exact",
		"prob.pd_exact_ms":     "prob.pd_exact",
		"prob.ladder_ms":       "prob.ladder",
	} {
		r.metrics[metric] = layers[span].meanMS()
	}
	r.metrics["prob.ladder_tier_exact"] = float64(tiers[prob.TierExact])
	r.metrics["prob.ladder_tier_fft"] = float64(tiers[prob.TierFFT])
	r.metrics["prob.ladder_tier_normal"] = float64(tiers[prob.TierNormal])
	r.metrics["prob.dp_units_per_op"] = units / float64(len(m.reqs))
	r.metrics["server.overhead_ms"] = base.overheadMS(chain)
	printKindShares("serve-whatif", m.reqs, chain)
	return writeSpans(spanPath(e, "serve-whatif"), t.spans)
}

// replayScenario scores one delta what-if the way the daemon's retained
// scenario cache does: one plan and scenario per base, rebased onto the
// base profile before each probe, or a throwaway scenario on the cached
// plan when a delta edits the instance.
func replayScenario(slot **scenarioEntry, parsed *server.ParsedWhatIf) (pm, pd float64, err error) {
	if *slot == nil {
		plan, err := election.NewPlan(parsed.Instance, election.Options{Replications: 1, ExactCostLimit: exactCostLimit, Workers: 1})
		if err != nil {
			return 0, 0, err
		}
		sc, err := election.NewScenario(plan, parsed.Graph)
		if err != nil {
			return 0, 0, err
		}
		*slot = &scenarioEntry{plan: plan, base: &core.DelegationGraph{Delegate: append([]int(nil), parsed.Graph.Delegate...)}, sc: sc}
	}
	entry := *slot
	sc := entry.sc
	instanceLevel := false
	for _, d := range parsed.Deltas {
		instanceLevel = instanceLevel || d.Kind != election.DeltaRepoint
	}
	if instanceLevel {
		sc, err = election.NewScenario(entry.plan, entry.base)
	} else {
		err = sc.SetDelegation(entry.base)
	}
	if err == nil {
		err = sc.ApplyDelta(parsed.Deltas...)
	}
	if err == nil {
		pm, err = sc.Score()
	}
	if err == nil {
		pd, err = sc.PD()
	}
	return pm, pd, err
}
