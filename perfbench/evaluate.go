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
	"liquid/internal/fault"
	"liquid/internal/graph"
	"liquid/internal/mechanism"
	"liquid/internal/prob"
	"liquid/internal/rng"
	"liquid/internal/server"
)

// The serve-evaluate mix: /v1/evaluate on complete graphs of 100 to 1000
// voters. Most requests are approval-threshold α-sweeps; a slice are
// greedy-best evaluations under a sink-unavailability fault, on the smaller
// instances (greedy-best is quadratic on K_n and would otherwise be nearly
// all of the time). One request in 48 is a wide 24-point sweep on the
// largest instance: a tail class several times the others' latency, so
// that p99_ms measures it rather than the host's scheduling hiccups and the
// fault requests' own tail, which moved it by 0.3 of its median over ten
// runs on a busy host.
var (
	evalSizes     = []int{100, 200, 400, 700, 1000}
	evalFaultMaxN = 400
	// evalSweeps are the approval margins of the sweeps, taken in turn.
	evalSweeps = [][]float64{{0, 0.05, 0.2}, {0.02, 0.1, 0.3}}
	// evalWideSweep is the wide sweep: 24 margins 0, 0.0125, ..., 0.2875.
	evalWideSweep = func() []float64 {
		a := make([]float64, 24)
		for i := range a {
			a[i] = 0.0125 * float64(i)
		}
		return a
	}()
)

const (
	evalMixSize    = 240
	evalFaultEvery = 8  // one body in evalFaultEvery is a fault request...
	evalWideEvery  = 48 // ...but one in evalWideEvery is a wide sweep
	evalReps       = 8
	evalPDTol      = 1e-12 // |pd - naive Poisson-binomial DP|
	// evalVerifyEvery: every evalVerifyEvery-th body of the mix, and every
	// wide sweep, is re-evaluated offline and its answer compared byte for
	// byte.
	evalVerifyEvery = 4
	exactCostLimit  = 1 << 23 // the daemon's default ExactCostLimit
)

// evalBody is what the benchmark knows about one evaluate request.
type evalBody struct {
	inst   int
	fault  bool
	alphas []float64
	seed   uint64
}

// evalMix is a serve-evaluate mix: the instances' competencies, the bodies
// and their wire form.
type evalMix struct {
	comps  [][]float64
	bodies []evalBody
	reqs   []*request
	warm   []*request
}

// competencies draws n competencies uniform on a band of width 0.4 whose
// centre lies within ±0.01 of 1/2: the regime where direct voting is
// neither sure to be right nor sure to be wrong at these sizes, and where
// the certified ladder has to escalate.
func competencies(s *rng.Stream, n int) []float64 {
	lo := 0.29 + 0.02*s.Float64()
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = lo + 0.4*s.Float64()
	}
	return ps
}

func buildEvalMix(seed uint64) (*evalMix, error) {
	root := rng.New(seed).DeriveString("perfbench/serve-evaluate")
	m := &evalMix{}
	for k, n := range evalSizes {
		m.comps = append(m.comps, competencies(root.DeriveString("instance").Derive(uint64(k)), n))
	}
	faultInsts := 0
	for faultInsts < len(evalSizes) && evalSizes[faultInsts] <= evalFaultMaxN {
		faultInsts++
	}
	// The make-up is fixed — every evalWideEvery-th body is a wide sweep on
	// the largest instance, the other evalFaultEvery-th ones are fault
	// requests, the rest cycle through the instances and the sweeps — so
	// every seed weighs sizes, kinds and margins alike; the seed draws the
	// competencies and the evaluation seeds.
	for j, nf, na := 0, 0, 0; j < evalMixSize; j++ {
		s := root.DeriveString("body").Derive(uint64(j))
		b := evalBody{seed: s.Uint64()}
		switch {
		case j%evalWideEvery == evalWideEvery-1:
			b.inst = len(evalSizes) - 1
			b.alphas = evalWideSweep
		case j%evalFaultEvery == evalFaultEvery-1:
			b.fault = true
			b.inst = nf % faultInsts
			b.alphas = []float64{0.05}
			nf++
		default:
			b.inst = na % len(evalSizes)
			b.alphas = evalSweeps[na%len(evalSweeps)]
			na++
		}
		m.bodies = append(m.bodies, b)
	}
	for _, b := range m.bodies {
		req := server.EvaluateRequest{
			Instance:     server.InstanceSpec{N: len(m.comps[b.inst]), Complete: true, P: m.comps[b.inst]},
			Seed:         b.seed,
			Replications: evalReps,
			DeadlineMS:   deadlineMS,
		}
		kind := "evaluate"
		if len(b.alphas) == len(evalWideSweep) {
			kind = "wide"
		}
		if b.fault {
			kind = "fault"
			req.Mechanism = server.MechanismSpec{Name: "greedy-best", Alpha: b.alphas[0]}
			req.Fault = &server.FaultSpec{Policy: "fallback-to-direct", DownRate: 0.2, Alpha: b.alphas[0]}
		} else {
			req.Mechanism = server.MechanismSpec{Name: "approval-threshold"}
			req.Alphas = b.alphas
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		m.reqs = append(m.reqs, &request{kind: kind, path: "/v1/evaluate", body: body})
	}
	// Warm-up: the first request of the mix on each distinct instance.
	seen := make(map[int]bool)
	for j, b := range m.bodies {
		if !seen[b.inst] {
			seen[b.inst] = true
			m.warm = append(m.warm, m.reqs[j])
		}
	}
	return m, nil
}

func (m *evalMix) instance(k int) (*core.Instance, error) {
	return core.NewInstance(graph.NewComplete(len(m.comps[k])), m.comps[k])
}

// runServeEvaluate is the serve-evaluate workload.
func runServeEvaluate(ctx context.Context, e *env, r *report) error {
	m, err := buildEvalMix(e.seed)
	if err != nil {
		return err
	}
	if e.trace {
		st, err := traceDaemon(ctx, e, r, "serve-evaluate", m.warm, m.reqs)
		if err != nil {
			return err
		}
		if err := m.verify(ctx, r, st.base.answers); err != nil {
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
	return m.verify(ctx, r, l.answers)
}

// verify checks every distinct answer: P^D against the naive
// Poisson-binomial DP, the gain identity, exactness, and for a sample of
// the mix byte identity with the same evaluation made offline.
func (m *evalMix) verify(ctx context.Context, r *report, answers [][]byte) error {
	oracle := make(map[int]float64)
	answered, offline := 0, 0
	defer func() {
		fmt.Fprintf(os.Stderr, "perfbench: serve-evaluate: checked %d distinct answers against the naive P^D DP, %d byte for byte against offline evaluation\n", answered, offline)
	}()
	for j, body := range answers {
		if body == nil {
			continue
		}
		answered++
		b := m.bodies[j]
		var resp server.EvaluateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			r.check(false, "evaluate %d: undecodable answer: %v", j, err)
			continue
		}
		pd, ok := oracle[b.inst]
		if !ok {
			pd = naiveMajorityPB(m.comps[b.inst])
			oracle[b.inst] = pd
		}
		r.check(!resp.Approximate && len(resp.Results) == len(b.alphas), "evaluate %d: approximate=%v, %d results for %d points", j, resp.Approximate, len(resp.Results), len(b.alphas))
		for _, pt := range resp.Results {
			r.check(math.Abs(pt.PD-pd) <= evalPDTol, "evaluate %d: pd %v, naive DP %v", j, pt.PD, pd)
			r.check(pt.PM >= 0 && pt.PM <= 1 && pt.Gain == pt.PM-pt.PD, "evaluate %d: pm %v, gain %v != pm - pd", j, pt.PM, pt.Gain)
			r.check(pt.N == len(m.comps[b.inst]), "evaluate %d: n %d", j, pt.N)
			if !b.fault {
				r.check(pt.GainLo <= pt.Gain && pt.Gain <= pt.GainHi, "evaluate %d: gain %v outside its interval [%v, %v]", j, pt.Gain, pt.GainLo, pt.GainHi)
			}
		}
		if j%evalVerifyEvery != 0 && m.reqs[j].kind != "wide" {
			continue
		}
		want, err := m.offline(ctx, j)
		if err != nil {
			return err
		}
		offline++
		r.check(string(want) == string(body), "evaluate %d: answer differs from offline evaluation:\n got %s\nwant %s", j, body, want)
	}
	return nil
}

// offline evaluates mix body j in process with the election (or fault)
// engine and renders the answer the daemon must give, byte for byte.
func (m *evalMix) offline(ctx context.Context, j int) ([]byte, error) {
	b := m.bodies[j]
	in, err := m.instance(b.inst)
	if err != nil {
		return nil, err
	}
	opts := election.Options{Replications: evalReps, ExactCostLimit: exactCostLimit, Workers: 1, Seed: b.seed}
	var resp server.EvaluateResponse
	if b.fault {
		res, err := fault.EvaluateUnderFaults(ctx, in, mechanism.GreedyBest{Alpha: b.alphas[0]}, faultOptions(opts, b.alphas[0]))
		if err != nil {
			return nil, err
		}
		resp.Results = append(resp.Results, faultPoint(res, b.alphas[0]))
	} else {
		for _, a := range b.alphas {
			res, err := election.EvaluateMechanism(ctx, in, mechanism.ApprovalThreshold{Alpha: a}, opts)
			if err != nil {
				return nil, err
			}
			resp.Results = append(resp.Results, exactPoint(res, a))
		}
	}
	return marshalLine(resp)
}

func faultOptions(opts election.Options, alpha float64) fault.ElectionOptions {
	return fault.ElectionOptions{Options: opts, DownRate: 0.2, Policy: fault.FallbackToDirect, Alpha: alpha}
}

// exactPoint and faultPoint render results the way the daemon's handler
// does.
func exactPoint(res *election.Result, alpha float64) server.PointResult {
	return server.PointResult{
		Mechanism: res.Mechanism, Alpha: alpha, N: res.N,
		PM: res.PM, PMStdErr: res.PMStdErr, PD: res.PD,
		Gain: res.Gain, GainLo: res.GainLo, GainHi: res.GainHi,
		MeanDelegators: res.MeanDelegators, MeanSinks: res.MeanSinks,
		MeanMaxWeight: res.MeanMaxWeight, MaxMaxWeight: res.MaxMaxWeight,
		MeanLongestChain: res.MeanLongestChain,
		PDTier:           prob.ClassifyExactTier(res.N).String(),
	}
}

func faultPoint(res *fault.ElectionResult, alpha float64) server.PointResult {
	return server.PointResult{
		Mechanism: res.Mechanism, Alpha: alpha, N: res.N,
		PM: res.PM, PMStdErr: res.PMStdErr, PD: res.PD, Gain: res.Gain,
		Policy: res.Policy.String(), MeanDown: res.MeanDown, MeanLost: res.MeanLost,
		MeanFellBack: res.MeanFellBack, MeanRedelegated: res.MeanRedelegated,
	}
}

// marshalLine is the daemon's response encoding: JSON and a newline.
func marshalLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// replay runs every body of the mix once in process through the public
// functions the handler calls, in its order — decode, plan, sweep, encode —
// with a span around each, then the sweep's inner work once more, split
// into mechanism apply, resolve and exact scoring. It sets the layer times,
// the cost-model units and server.overhead_ms against the untraced loop.
func (m *evalMix) replay(ctx context.Context, e *env, r *report, base *loopResult) error {
	t := newTracer()
	chain := make([]time.Duration, len(m.reqs))
	units := 0.0
	for j, rq := range m.reqs {
		op := int64(j + 1)
		b := m.bodies[j]
		t0 := time.Now()
		root := t.begin(op, 0, "server.request")
		var parsed *server.ParsedEvaluate
		var aerr *server.Error
		t.do(op, root, "server.decode", func() { parsed, aerr = server.ParseEvaluateRequest(rq.body) })
		if aerr != nil {
			return fmt.Errorf("replay %d: %v", j, aerr)
		}
		in := parsed.Instance
		opts := election.Options{Replications: evalReps, ExactCostLimit: exactCostLimit, Workers: 1, Seed: b.seed}
		var resp server.EvaluateResponse
		var err error
		if b.fault {
			t.do(op, root, "election.sweep", func() {
				var res []*fault.ElectionResult
				res, err = fault.EvaluateSweep(ctx, in, []fault.SweepPoint{{Mechanism: parsed.Mechanisms[0], Opts: faultOptions(opts, b.alphas[0])}})
				if err == nil {
					resp.Results = append(resp.Results, faultPoint(res[0], b.alphas[0]))
				}
			})
		} else {
			var plan *election.Plan
			t.do(op, root, "election.plan", func() {
				plan, err = election.NewPlan(in, opts)
				if err == nil {
					plan.PrewarmApproval(parsed.Alphas...)
				}
			})
			if err != nil {
				return err
			}
			t.do(op, root, "election.sweep", func() {
				points := make([]election.SweepPoint, len(parsed.Mechanisms))
				for i, mech := range parsed.Mechanisms {
					points[i] = election.SweepPoint{Mechanism: mech, Seed: b.seed, Replications: evalReps}
				}
				var res []*election.Result
				res, err = election.EvaluateSweep(ctx, plan, points)
				for i := range res {
					resp.Results = append(resp.Results, exactPoint(res[i], parsed.Alphas[i]))
				}
			})
		}
		if err != nil {
			return err
		}
		t.do(op, root, "server.encode", func() { _, err = marshalLine(resp) })
		t.end(root)
		chain[j] = time.Since(t0)
		if err != nil {
			return err
		}
		units += float64(len(parsed.Alphas)) * float64(server.EstimateCost(in.N(), evalReps, exactCostLimit))

		// The sweep's inner work, once more with a span per layer.
		inner := t.begin(op, 0, "replay.inner")
		t.do(op, inner, "prob.pd_exact", func() { _, err = election.DirectProbabilityExact(in) })
		for i, mech := range parsed.Mechanisms {
			s := rng.New(b.seed)
			for rep := 0; rep < evalReps && err == nil; rep++ {
				var dg *core.DelegationGraph
				var res *core.Resolution
				t.do(op, inner, "mechanism.apply", func() { dg, err = mech.Apply(in, s.Derive(uint64(rep)+1)) })
				if err == nil {
					t.do(op, inner, "core.resolve", func() { res, err = dg.Resolve() })
				}
				if err == nil {
					t.do(op, inner, "prob.pm_exact", func() { _, err = election.ResolutionProbabilityExact(in, res) })
				}
			}
			if err != nil {
				return fmt.Errorf("replay %d point %d: %w", j, i, err)
			}
		}
		t.end(inner)
	}
	layers := selfTimes(t.spans)
	for metric, span := range map[string]string{
		"server.decode_ms":   "server.decode",
		"server.encode_ms":   "server.encode",
		"election.plan_ms":   "election.plan",
		"election.sweep_ms":  "election.sweep",
		"mechanism.apply_ms": "mechanism.apply",
		"core.resolve_ms":    "core.resolve",
		"prob.pm_exact_ms":   "prob.pm_exact",
		"prob.pd_exact_ms":   "prob.pd_exact",
	} {
		r.metrics[metric] = layers[span].meanMS()
	}
	r.metrics["prob.dp_units_per_op"] = units / float64(len(m.reqs))
	r.metrics["server.overhead_ms"] = base.overheadMS(chain)
	printKindShares("serve-evaluate", m.reqs, chain)
	return writeSpans(spanPath(e, "serve-evaluate"), t.spans)
}

func spanPath(e *env, workload string) string {
	return fmt.Sprintf("%s/runs/%s-seed%d.spans.jsonl", e.out, workload, e.seed)
}
