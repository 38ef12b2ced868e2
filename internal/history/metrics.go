package history

import "taxiqueue/internal/obs"

// metrics are the store's registry collectors. Stats() reads these same
// collectors, so /metrics and the JSON stats view cannot disagree.
type metrics struct {
	appends     *obs.Counter
	records     *obs.Counter
	blocks      *obs.Counter
	bytes       *obs.Gauge
	truncations *obs.Counter
	writeErrs   *obs.Counter

	// Summary fast path: range aggregations served straight from block
	// summaries vs blocks that had to decode (partial range overlap).
	summaryHits   *obs.Counter
	summaryMisses *obs.Counter
	// Decoded-block LRU in front of the disk-resident blocks lazy Open
	// leaves behind.
	cacheHits      *obs.Counter
	cacheEvictions *obs.Counter

	qSeries      *obs.Histogram
	qHeatmap     *obs.Histogram
	qRange       *obs.Histogram
	qTransitions *obs.Histogram
}

func newMetrics(reg *obs.Registry) *metrics {
	q := func(kind string) *obs.Histogram {
		return reg.Histogram("history_query_seconds",
			"History query latency by query kind.",
			obs.DefBuckets, obs.Label{Name: "query", Value: kind})
	}
	return &metrics{
		appends: reg.Counter("history_appends_total",
			"Append batches applied to the history store."),
		records: reg.Counter("history_records_total",
			"Non-empty (spot, slot) cells recorded into history."),
		blocks: reg.Counter("history_blocks_total",
			"Columnar blocks sealed (encoded) by the history store."),
		bytes: reg.Gauge("history_bytes",
			"History log bytes on disk (file headers + CRC-framed blocks)."),
		truncations: reg.Counter("history_truncations_total",
			"Recoveries that truncated a damaged history file tail."),
		writeErrs: reg.Counter("history_write_errors_total",
			"Failed history log commits (the next commit rewrites the blocks into a new file)."),
		summaryHits: reg.Counter("history_summary_hits_total",
			"Range-aggregation blocks served from their summary without decoding."),
		summaryMisses: reg.Counter("history_summary_misses_total",
			"Range-aggregation blocks that partially overlapped the range and decoded."),
		cacheHits: reg.Counter("history_block_cache_hits_total",
			"Disk-resident block reads served from the decoded-block cache."),
		cacheEvictions: reg.Counter("history_block_cache_evictions_total",
			"Decoded blocks evicted from the cold end of the block cache."),
		qSeries:      q("series"),
		qHeatmap:     q("heatmap"),
		qRange:       q("range"),
		qTransitions: q("transitions"),
	}
}
