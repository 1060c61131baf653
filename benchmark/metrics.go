package main

// metricDef names one reported metric and its unit. The two lists below are
// the benchmark's contract with BENCHMARK.json (the smoke test holds them
// equal): --trace 0 prints exactly endToEnd, --trace 1 exactly perLayer.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is what a user of the served system sees, per workload. Every
// one is defined, and non-zero, on every workload; README.md says why
// error_rate, lat_p99_ms and the ingest write metrics are not here.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"lat_p50_ms", "ms"},
	{"lat_p95_ms", "ms"},
	{"throughput_qps", "1/s"},
	{"cpu_ms_per_lookup", "ms"},
	{"rss_peak_mb", "MB"},
	{"recall_at_10", "ratio"},
	{"top1_accuracy", "ratio"},
}

// perLayer is one row per layer boundary — layer = module of this repo —
// plus the harness's own health. A layer a workload does not pass through
// reports 0.
var perLayer = []metricDef{
	// HTTP: kernel + net/http (not a repo module; kept so the stages sum),
	// then the handler minus what it calls.
	{"loopback.self_p50_us", "us"},
	{"server.self_p50_us", "us"},
	{"server.took_p50_us", "us"},
	{"server.resp_bytes_per_lookup", "B"},
	{"tenant.self_p50_us", "us"},
	{"tenant.admission_p50_us", "us"},
	{"tenant.admitted", "count"},
	{"tenant.shed", "count"},
	{"serve.self_p50_us", "us"},
	{"serve.hit_p50_us", "us"},
	{"serve.cache_hit_rate", "ratio"},
	{"serve.coalesce_batch_mean", "count"},
	{"serve.coalesce_wait_p50_us", "us"},
	{"serve.bulk_dedupe_rate", "ratio"},
	{"core.lookup_p50_us", "us"},
	{"core.self_p50_us", "us"},
	{"core.normalize_p50_us", "us"},
	{"core.embed_p50_us", "us"},
	{"core.bulk_us_per_query", "us"},
	{"core.ingest_apply_p50_us", "us"},
	{"core.ingest_queue_depth_max", "count"},
	{"core.index_build_s", "s"},
	{"core.train_s", "s"},
	{"index.search_p50_us", "us"},
	{"index.self_p50_us", "us"},
	{"index.ns_per_row", "ns"},
	{"index.batch_us_per_query", "us"},
	{"index.sharded_speedup", "ratio"},
	{"quant.adc_table_p50_us", "us"},
	{"index.dynamic_delta_rows", "count"},
	{"index.dynamic_compactions", "count"},
	{"cluster.router_self_p50_us", "us"},
	{"cluster.rpc_p50_us", "us"},
	{"cluster.rpc_self_p50_us", "us"},
	{"cluster.node_handler_p50_us", "us"},
	{"cluster.node_self_p50_us", "us"},
	{"cluster.marshal_p50_us", "us"},
	{"cluster.rpc_req_bytes", "B"},
	{"cluster.rpc_resp_bytes", "B"},
	{"cluster.retries", "count"},
	{"cluster.hedges", "count"},
	{"cluster.partial", "count"},
	{"artifact.attach_ms", "ms"},
	{"artifact.file_mb", "MB"},
	{"kg.generate_s", "s"},
	{"kg.load_s", "s"},
	// End-to-end rows that cannot be end_to_end metrics of BENCHMARK.json:
	// zero when healthy, defined on one workload only, or too unsteady.
	{"ingest.write_p50_ms", "ms"},
	{"ingest.write_p99_ms", "ms"},
	{"ingest.visible_rate", "ratio"},
	{"loadgen.lat_p99_ms", "ms"},
	{"loadgen.error_rate", "ratio"},
	// Harness health.
	{"loadgen.sent", "count"},
	{"loadgen.ok", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"host.calib_cpu_ms", "ms"},
	{"host.calib_mem_ms", "ms"},
	{"trace.wall_p50_us", "us"},
	{"trace.self_sum_us", "us"},
	{"trace.wall_mean_us", "us"},
	{"trace.overhead_share", "ratio"},
	{"trace.negative_self_share", "ratio"},
}

// measured is a metric value with its unit, as printed.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func pick(defs []metricDef, m map[string]float64) map[string]measured {
	out := make(map[string]measured, len(defs))
	for _, d := range defs {
		out[d.Name] = measured{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}
