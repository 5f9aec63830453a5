package main

// metricDef is one metric the benchmark reports: its name, unit and the
// direction that counts as better. BENCHMARK.json lists the same metrics;
// TestBenchmarkJSONMatchesTables keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a run without tracing reports, every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run reports, every workload. A layer
// the workload's path does not reach reads 0.
var perLayer = []metricDef{
	{"server.decode_ms", "ms", "lower"},
	{"server.encode_ms", "ms", "lower"},
	{"server.overhead_ms", "ms", "lower"},
	{"server.scenario_hit_ratio", "ratio", "higher"},
	{"server.shed", "count", "lower"},
	{"server.expired", "count", "lower"},
	{"core.resolve_ms", "ms", "lower"},
	{"mechanism.apply_ms", "ms", "lower"},
	{"election.plan_ms", "ms", "lower"},
	{"election.sweep_ms", "ms", "lower"},
	{"election.resolution_cache_hit_ratio", "ratio", "higher"},
	{"election.direct_cache_hit_ratio", "ratio", "higher"},
	{"election.scenario_ms", "ms", "lower"},
	{"election.delta_patches", "count/op", "higher"},
	{"election.delta_rebuilds", "count/op", "lower"},
	{"prob.pd_exact_ms", "ms", "lower"},
	{"prob.pm_exact_ms", "ms", "lower"},
	{"prob.dp_units_per_op", "units/op", "lower"},
	{"prob.ladder_ms", "ms", "lower"},
	{"prob.ladder_tier_exact", "count", "lower"},
	{"prob.ladder_tier_fft", "count", "lower"},
	{"prob.ladder_tier_normal", "count", "higher"},
	{"scale.fold_ms", "ms", "lower"},
	{"scale.chunk_us", "us", "lower"},
	{"scale.chunks", "count", "lower"},
	{"experiment.X2_s", "s", "lower"},
	{"experiment.X7_s", "s", "lower"},
	{"experiment.S1_s", "s", "lower"},
	{"experiment.T3_s", "s", "lower"},
	{"experiment.A3_s", "s", "lower"},
	{"experiment.A6_s", "s", "lower"},
	{"experiment.T5_s", "s", "lower"},
	{"experiment.R1_s", "s", "lower"},
	{"experiment.other_s", "s", "lower"},
	{"go.gc_cycles_per_op", "count/op", "lower"},
	{"go.alloc_kb_per_op", "KB/op", "lower"},
	{"cpu.prob_s", "s", "lower"},
	{"cpu.election_s", "s", "lower"},
	{"cpu.mechanism_s", "s", "lower"},
	{"cpu.core_s", "s", "lower"},
	{"cpu.graph_s", "s", "lower"},
	{"cpu.rng_s", "s", "lower"},
	{"cpu.server_s", "s", "lower"},
	{"cpu.scale_s", "s", "lower"},
	{"cpu.json_s", "s", "lower"},
	{"cpu.gc_s", "s", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// timedExperiments are the reproduce experiments timed on their own in the
// traced run: together about nine tenths of a one-worker pass. The rest is
// experiment.other_s.
var timedExperiments = []string{"X2", "X7", "S1", "T3", "A3", "A6", "T5", "R1"}
