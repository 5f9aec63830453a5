package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"liquid/internal/prob"
	"liquid/internal/rng"
	"liquid/internal/scale"
)

// The scale-certify workload: in-process certified queries, each on a fresh
// streamed 10^6-voter electorate. P^D comes from the approximation ladder
// with an error budget, P^M from the chunked fold and its certificate. The
// competencies are uniform on a band of width 0.1 whose centre is drawn
// within ±scaleShift of 1/2: at 10^6 voters that moves P^D across its whole
// range, where a wider shift would pin it at 0 or 1.
const (
	scaleN       = 1_000_000
	scaleBudget  = 1e-3
	scaleShift   = 0.002
	scaleMaxFrac = 0.5 // delegation fractions are drawn in [0, scaleMaxFrac)
	scaleRound   = 8   // queries per round, one per delegation stratum
	// scaleMinRounds keeps a run at 40 or more queries, so that p99_ms is
	// always the highest percentile with ten queries beyond it (p75 at 40)
	// and never falls back to the maximum on a slow host.
	scaleMinRounds = 5
	scaleWarmups   = 5
	scaleOverlapK  = 8 // every scaleOverlapK-th query's P^D is checked against the Berry–Esseen oracle
	// scaleWorkers is the fold's and the ladder's worker count. One worker
	// leaves the second core to the rest of the machine, which keeps the
	// figures steady on a shared two-core host.
	scaleWorkers = 1
)

// scaleCheckSizes are the electorate sizes whose certificates are checked
// against the naive DPs, eight chunks each.
var scaleCheckSizes = []int{64, 256, 1024, 4096}

// certQuery is one certified query and its answer.
type certQuery struct {
	inst    *scale.StreamInstance
	pd      prob.CertifiedInterval
	pm      *scale.MajorityResult
	latency time.Duration
}

// scaleSpec derives query q's electorate from the run seed. Its delegation
// fraction lies in stratum q mod scaleRound of [0, scaleMaxFrac), so each
// round of scaleRound queries spans the fractions evenly whatever the seed.
func scaleSpec(seed uint64, label string, q int, n, chunk int) scale.Spec {
	s := rng.New(seed).DeriveString("perfbench/scale-certify/" + label).Derive(uint64(q))
	low := 0.45 + scaleShift*(2*s.Float64()-1)
	frac := scaleMaxFrac * (float64(q%scaleRound) + s.Float64()) / scaleRound
	return scale.Spec{N: n, ChunkSize: chunk, Seed: s.Uint64(), Low: low, High: low + 0.1, DelegateFrac: frac}
}

// certify runs one query: a fresh streamed electorate, P^D on the ladder,
// P^M through the fold. t, when non-nil, records a span per stage.
func certify(ctx context.Context, spec scale.Spec, t *tracer, op int64) (*certQuery, error) {
	span := func(name string, fn func()) {
		if t == nil {
			fn()
			return
		}
		t.do(op, 0, name, fn)
	}
	q := &certQuery{}
	t0 := time.Now()
	var err error
	span("scale.generate", func() { q.inst, err = scale.New(spec) })
	if err != nil {
		return nil, err
	}
	span("prob.ladder", func() {
		q.pd, err = prob.LadderMajority(ctx, q.inst, prob.LadderOptions{ErrorBudget: scaleBudget, Workers: scaleWorkers})
	})
	if err != nil && !errors.Is(err, prob.ErrBudgetInfeasible) {
		return nil, err
	}
	span("scale.fold", func() { q.pm, err = scale.EvaluateMajority(ctx, q.inst, scaleWorkers) })
	if err != nil {
		return nil, err
	}
	q.latency = time.Since(t0)
	return q, nil
}

// checkQuery checks what a query's answer must satisfy by construction:
// weight is conserved, every voter is a sink or a delegator, the ladder's
// half-width is within the budget it was given, and the fold's certificate
// (which takes no budget: delegation widens it) is a proper interval.
func checkQuery(r *report, q *certQuery) {
	st := q.pm.Stats
	n := q.inst.Len()
	r.check(st.WeightSum == int64(n) && st.Sinks+st.Delegators == n, "scale: weight %d, sinks %d + delegators %d for %d voters", st.WeightSum, st.Sinks, st.Delegators, n)
	r.check(q.pd.HalfWidth <= scaleBudget, "scale: P^D half-width %v (%s) over budget %v", q.pd.HalfWidth, q.pd.Tier, scaleBudget)
	pm := q.pm.Interval
	r.check(pm.HalfWidth >= 0 && pm.Contains(pm.Point), "scale: P^M interval %v ± %v", pm.Point, pm.HalfWidth)
}

// certLoop runs whole rounds of queries until dur has passed, and at least
// scaleMinRounds of them, and returns the queries.
func certLoop(ctx context.Context, e *env, r *report, dur time.Duration, label string, t *tracer) ([]*certQuery, time.Duration, error) {
	var qs []*certQuery
	start := time.Now()
	for len(qs) < scaleMinRounds*scaleRound || time.Since(start) < dur {
		for k := 0; k < scaleRound; k++ {
			i := len(qs)
			q, err := certify(ctx, scaleSpec(e.seed, label, i, scaleN, 0), t, int64(i+1))
			if err != nil {
				return nil, 0, err
			}
			r.op(true)
			checkQuery(r, q)
			qs = append(qs, q)
		}
	}
	return qs, time.Since(start), nil
}

func runScaleCertify(ctx context.Context, e *env, r *report) error {
	// Set-up: the first queries of a fresh process, which pay any lazy
	// initialisation, all in the middle delegation stratum; setup_s is
	// their median.
	var setups []float64
	for i := 0; i < scaleWarmups; i++ {
		q, err := certify(ctx, scaleSpec(e.seed, "warm", i*scaleRound+scaleRound/2, scaleN, 0), nil, 0)
		if err != nil {
			return err
		}
		checkQuery(r, q)
		setups = append(setups, q.latency.Seconds())
	}

	cpu0 := selfCPU()
	qs, elapsed, err := certLoop(ctx, e, r, e.seconds, "timed", nil)
	if err != nil {
		return err
	}
	cpu := selfCPU() - cpu0
	peak, err := procPeakRSS(os.Getpid())
	if err != nil {
		return err
	}
	if e.trace {
		if err := traceScale(ctx, e, r, float64(len(qs))/elapsed.Seconds()); err != nil {
			return err
		}
	} else {
		lat := make([]time.Duration, len(qs))
		for i, q := range qs {
			lat[i] = q.latency
		}
		ms := millis(lat)
		r.metrics["setup_s"] = median(setups)
		r.metrics["ops_per_s"] = float64(len(qs)) / elapsed.Seconds()
		r.metrics["p50_ms"] = percentile(ms, 50)
		r.metrics["p99_ms"], _ = tailPercentile(ms)
		r.metrics["cpu_ms_per_op"] = float64(cpu) / float64(time.Millisecond) / float64(len(qs))
		r.metrics["peak_rss_mb"] = peak
	}

	// The 10^6-voter P^D certificates must overlap the benchmark's own
	// Berry–Esseen interval, computed from the same streamed competencies.
	for i := 0; i < len(qs); i += scaleOverlapK {
		q := qs[i]
		be := berryEsseenMajority(q.inst.Len(), q.inst.Competency)
		r.check(be.overlaps(interval{q.pd.Lo(), q.pd.Hi()}), "scale: query %d P^D %v ± %v misses the Berry–Esseen interval [%v, %v]", i, q.pd.Point, q.pd.HalfWidth, be.lo, be.hi)
	}
	// At sizes the naive DPs afford, with the same generator, the certified
	// intervals must contain the exact answers. The smaller sizes and the
	// top delegation stratum are where the normal approximation is worst,
	// so an interval narrower than its guarantee shows there first.
	for i, n := range scaleCheckSizes {
		if err := checkSmall(ctx, r, scaleSpec(e.seed, "small", i*scaleRound+scaleRound-1, n, n/8)); err != nil {
			return err
		}
	}
	return nil
}

// checkSmall certifies a small streamed electorate on the normal tier and
// through the fold, and checks both intervals against the naive DPs: P^D
// over the streamed competencies, P^M over the sinks the fold resolves.
func checkSmall(ctx context.Context, r *report, spec scale.Spec) error {
	inst, err := scale.New(spec)
	if err != nil {
		return err
	}
	pd, err := prob.LadderMajority(ctx, inst, prob.LadderOptions{Force: prob.TierNormal})
	if err != nil {
		return err
	}
	pm, err := scale.EvaluateMajority(ctx, inst, scaleWorkers)
	if err != nil {
		return err
	}
	ps := make([]float64, inst.Len())
	for i := range ps {
		ps[i] = inst.Competency(i)
	}
	var sinks []weighted
	f := scale.NewFold()
	for c := 0; c < inst.NumChunks(); c++ {
		vs, _ := f.ChunkSinks(inst, c)
		for _, v := range vs {
			sinks = append(sinks, weighted{w: v.Weight, p: v.P})
		}
	}
	exactPD, exactPM := naiveMajorityPB(ps), naiveMajorityWM(sinks)
	r.check(pd.Contains(exactPD), "scale: n=%d normal-tier P^D [%v, %v] misses the exact %v", spec.N, pd.Lo(), pd.Hi(), exactPD)
	r.check(pm.Interval.Contains(exactPM), "scale: n=%d P^M [%v, %v] misses the exact %v", spec.N, pm.Interval.Lo(), pm.Interval.Hi(), exactPM)
	return nil
}

// traceScale repeats the timed loop with a span per stage and a CPU
// profile, folds one electorate chunk by chunk with a span per chunk, and
// sets the per-layer metrics. untracedQPS is the untraced loop's rate.
func traceScale(ctx context.Context, e *env, r *report, untracedQPS float64) error {
	t := newTracer()
	var prof bytes.Buffer
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	qs, elapsed, err := certLoop(ctx, e, r, e.seconds, "traced", t)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(qs))

	// One electorate folded a chunk at a time.
	inst, err := scale.New(scaleSpec(e.seed, "chunks", 0, scaleN, 0))
	if err != nil {
		return err
	}
	f := scale.NewFold()
	for c := 0; c < inst.NumChunks(); c++ {
		t.do(0, 0, "scale.chunk", func() { f.ChunkStats(inst, c) })
	}

	cpu, err := cpuByPackage(prof.Bytes())
	if err != nil {
		return err
	}
	for _, pkg := range cpuPackages {
		r.metrics["cpu."+pkg+"_s"] = cpu[pkg]
	}
	layers := selfTimes(t.spans)
	tiers := make(map[prob.Tier]int)
	for _, q := range qs {
		tiers[q.pd.Tier]++
	}
	chunk := layers["scale.chunk"]
	r.metrics["prob.ladder_ms"] = layers["prob.ladder"].meanMS()
	r.metrics["prob.ladder_tier_exact"] = float64(tiers[prob.TierExact])
	r.metrics["prob.ladder_tier_fft"] = float64(tiers[prob.TierFFT])
	r.metrics["prob.ladder_tier_normal"] = float64(tiers[prob.TierNormal])
	r.metrics["scale.fold_ms"] = layers["scale.fold"].meanMS()
	r.metrics["scale.chunk_us"] = float64(chunk.self) / float64(time.Microsecond) / float64(inst.NumChunks())
	r.metrics["scale.chunks"] = float64(inst.NumChunks())
	r.metrics["go.gc_cycles_per_op"] = float64(m1.NumGC-m0.NumGC) / n
	r.metrics["go.alloc_kb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / n
	r.metrics["trace.overhead_pct"] = 100 * (untracedQPS/(n/elapsed.Seconds()) - 1)
	return writeSpans(fmt.Sprintf("%s/runs/scale-certify-seed%d.spans.jsonl", e.out, e.seed), t.spans)
}
