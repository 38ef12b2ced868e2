package main

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees that hold steady
// enough from run to run to carry a regression bound, reported on every
// workload from the untraced run. The latency and CPU cost of an operation
// are reported per layer: on the shared host the bounds were measured on,
// their spread from run to run exceeds 25 % (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},      // median of 3 set-ups: queued exec to /healthz 200, or loading the day
	{"peak_rss_mb", "MB"}, // VmHWM of the system under test, reset at the end of set-up (before each pipeline day)
}

// perLayer are the metrics the traced run adds: the whole system's
// latency and CPU cost per operation, then counts, busy time and waiting
// per layer, from the /metrics deltas of the served run, its client-side
// samples, and the spans of the in-process copy. A layer a workload does
// not exercise reports 0. On the served workloads an operation is a read
// or a POST, and the latency is the reads'; on pipeline_day an operation
// is one cleaned and analyzed day.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"latency_p50_ms", "ms"}, // op latency from its due time, median; failures count as +Inf
		{"cpu_ms_per_op", "ms"},  // CPU time of the system under test per operation issued
		{"gen.late_p99_ms", "ms"},
		{"gen.late_max_ms", "ms"},
		{"gen.read_samples", "count"},
		{"gen.ingest_samples", "count"},
		{"gen.freshness_samples", "count"},
		{"gen.connections", "count"},
		{"gen.cpu_pct", "%"},
		{"read.p99_ms", "ms"},
		{"read.tail_ms", "ms"},
	}
	for _, ep := range endpointNames {
		defs = append(defs, metricDef{"read." + ep + ".p50_ms", "ms"}, metricDef{"read." + ep + ".p99_ms", "ms"})
	}
	for _, ep := range endpointNames {
		defs = append(defs, metricDef{"queued.edge_ms." + ep, "ms"})
	}
	defs = append(defs,
		metricDef{"queued.cache_hit_ratio", "ratio"},
		metricDef{"queued.cache_misses", "count"},
		metricDef{"queued.prewarm_renders", "count"},
		metricDef{"server.cpu_pct", "%"},
		metricDef{"server.threads", "count"},

		metricDef{"feed.ingest_p50_ms", "ms"},
		metricDef{"feed.ingest_p99_ms", "ms"},
		metricDef{"feed.freshness_p50_ms", "ms"},
		metricDef{"feed.freshness_p75_ms", "ms"},

		metricDef{"ingest.decode_ms", "ms"},
		metricDef{"ingest.queue_wait_ms", "ms"},
		metricDef{"ingest.process_ms", "ms"},
		metricDef{"ingest.accept_p50_us", "us"},
		metricDef{"ingest.accept_p99_us", "us"},
		metricDef{"ingest.accept_ratio", "ratio"},
		metricDef{"ingest.rejected", "count"},
		metricDef{"ingest.dedup", "count"},
		metricDef{"ingest.snapshot_epochs", "count"},
		metricDef{"ingest.publish_lag_p50_ms", "ms"},
		metricDef{"ingest.publish_lag_p75_ms", "ms"},

		metricDef{"store.wal_syncs", "count"},
		metricDef{"store.records_per_sync", "count"},
		metricDef{"store.wal_sync_ms", "ms"},
	)
	for _, q := range []string{"series", "heatmap", "range_summary", "transitions"} {
		defs = append(defs, metricDef{"history." + q + ".p50_us", "us"}, metricDef{"history." + q + ".p99_us", "us"})
	}
	defs = append(defs,
		metricDef{"history.summary_hit_ratio", "ratio"},
		metricDef{"history.block_cache_hit_ratio", "ratio"},
		metricDef{"history.block_cache_evictions", "count"},
		metricDef{"history.append_ms", "ms"},
		metricDef{"history.open_ms", "ms"},

		metricDef{"forecast.forecast_us", "us"},
		metricDef{"forecast.append_ms", "ms"},
		metricDef{"forecast.backfill_ms", "ms"},

		metricDef{"recommend.p50_us", "us"},
		metricDef{"recommend.p99_us", "us"},

		metricDef{"clean.ms", "ms"},
		metricDef{"clean.removed_ratio", "ratio"},
		metricDef{"core.split_ms", "ms"},
		metricDef{"core.pea_ms", "ms"},
		metricDef{"core.dbscan_ms", "ms"},
		metricDef{"core.wte_ms", "ms"},
		metricDef{"core.qcd_ms", "ms"},
		metricDef{"core.pickups", "count"},
		metricDef{"core.spots", "count"},
		metricDef{"core.waits", "count"},
		metricDef{"core.alloc_mb_per_day", "MB"},

		metricDef{"trace.overhead_pct", "%"},
		metricDef{"trace.spans", "count"},
	)
	return defs
}()
