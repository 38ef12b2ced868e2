package main

import (
	"time"

	"taxiqueue/internal/clean"
	"taxiqueue/internal/core"
)

// The per-layer metrics, derived from three sources: the served run's
// client samples (layerClient), the server's /proc and /metrics deltas
// over the timed window (layerServer), and the spans of the in-process
// copy (layerCopy, layerPipeline).

// layerClient fills the generator, per-endpoint read and feed metrics;
// late is the generator's lateness over both schedules.
func layerClient(l map[string]float64, reads []read, readS, feedS []sample, late []float64, pr *prober, conns int) {
	var all []float64
	byEP := make([][]float64, numEndpoints)
	for i, s := range readS {
		all = append(all, s.lat)
		byEP[reads[i].ep] = append(byEP[reads[i].ep], s.lat)
	}
	var ing []float64
	for _, s := range feedS {
		ing = append(ing, s.lat)
	}
	for ep, xs := range byEP {
		name := "read." + endpoint(ep).String()
		l[name+".p50_ms"] = median(xs)
		l[name+".p99_ms"] = quantile(xs, 0.99)
	}
	l["read.p99_ms"] = quantile(all, 0.99)
	l["read.tail_ms"] = quantile(all, 0.999)
	l["gen.late_p99_ms"] = quantile(late, 0.99)
	l["gen.late_max_ms"] = quantile(late, 1)
	l["gen.read_samples"] = float64(len(readS))
	l["gen.ingest_samples"] = float64(len(feedS))
	l["gen.connections"] = float64(conns)
	l["feed.ingest_p50_ms"] = median(ing)
	l["feed.ingest_p99_ms"] = quantile(ing, 0.99)
	if pr != nil {
		l["gen.freshness_samples"] = float64(len(pr.fresh))
		l["feed.freshness_p50_ms"] = median(pr.fresh)
		l["feed.freshness_p75_ms"] = quantile(pr.fresh, 0.75)
	}
}

// layerServer fills the server-side metrics from the window's /proc
// samples and /metrics delta d.
func layerServer(l map[string]float64, d scrape, s0, s1 procSample, wall time.Duration) {
	l["server.cpu_pct"] = 100 * (s1.CPU - s0.CPU).Seconds() / wall.Seconds()
	l["server.threads"] = float64(s1.Threads)

	hits, misses := d.total("queued_cache_hits_total"), d.total("queued_cache_misses_total")
	l["queued.cache_hit_ratio"] = ratio(hits, hits+misses)
	l["queued.cache_misses"] = misses
	l["queued.prewarm_renders"] = d.total("queued_cache_prewarm_total")

	l["ingest.decode_ms"] = 1e3 * d.hist("ingest_http_decode_seconds").mean()
	l["ingest.queue_wait_ms"] = 1e3 * d.hist("ingest_queue_wait_seconds").mean()
	l["ingest.process_ms"] = 1e3 * d.hist("ingest_process_seconds").mean()
	acc, rej := d.total("ingest_accepted_total"), d.total("ingest_rejected_total")
	dedup := d.total("ingest_resend_dedup_total")
	l["ingest.accept_ratio"] = ratio(acc, acc+rej)
	l["ingest.rejected"] = rej
	l["ingest.dedup"] = dedup
	l["ingest.snapshot_epochs"] = d.total("ingest_snapshot_epochs_total")

	// A shard logs every record that passes its ordering rule and re-send
	// dedup to the WAL, raw, before cleaning.
	logged := acc + rej - dedup - d.total("ingest_removed_total", "reason", "out_of_order")
	syncs := d.total("ingest_wal_syncs_total")
	l["store.wal_syncs"] = syncs
	l["store.records_per_sync"] = ratio(logged, syncs)
	l["store.wal_sync_ms"] = 1e3 * d.hist("ingest_wal_sync_seconds").mean()

	sh, sm := d.total("history_summary_hits_total"), d.total("history_summary_misses_total")
	l["history.summary_hit_ratio"] = ratio(sh, sh+sm)
	// The block cache exports hits and evictions but not misses. Once the
	// LRU is full every miss inserts a block and evicts one, so over a
	// window that starts full, misses equal evictions.
	ch, ce := d.total("history_block_cache_hits_total"), d.total("history_block_cache_evictions_total")
	l["history.block_cache_hit_ratio"] = ratio(ch, ch+ce)
	l["history.block_cache_evictions"] = ce
}

// layerCopy fills the metrics of the in-process copy's spans. For a feed,
// accepted holds when each batch's Accept started and r.publish when each
// slot first became final.
func layerCopy(l map[string]float64, sum map[string]*spanStats, r *replica, feed feedPlan, accepted []time.Time) {
	p := func(name string, q float64) float64 {
		if st := sum[name]; st != nil {
			return quantile(st.dur, q)
		}
		return 0
	}
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		if copyUS := p("read."+ep.String(), 0.5); copyUS > 0 {
			l["queued.edge_ms."+ep.String()] = l["read."+ep.String()+".p50_ms"] - copyUS/1e3
		}
	}
	l["ingest.accept_p50_us"] = p("ingest.Accept", 0.5)
	l["ingest.accept_p99_us"] = p("ingest.Accept", 0.99)
	for name, q := range map[string]string{
		"series": "history.Series", "heatmap": "history.Heatmap",
		"range_summary": "history.RangeSummary", "transitions": "history.Transitions",
	} {
		l["history."+name+".p50_us"] = p(q, 0.5)
		l["history."+name+".p99_us"] = p(q, 0.99)
	}
	l["history.append_ms"] = p("history.AppendSlots", 0.5) / 1e3
	l["history.open_ms"] = p("history.Open", 0.5) / 1e3
	l["forecast.forecast_us"] = p("forecast.Forecast", 0.5)
	l["forecast.append_ms"] = p("forecast.AppendSlots", 0.5) / 1e3
	l["forecast.backfill_ms"] = p("forecast.BackfillHistory", 0.5) / 1e3
	l["recommend.p50_us"] = p("recommend.Recommend", 0.5)
	l["recommend.p99_us"] = p("recommend.Recommend", 0.99)

	var lag []float64
	r.mu.Lock()
	for k, b := range feed.closing {
		if b >= 0 && b < len(accepted) && !r.publish[k].IsZero() {
			lag = append(lag, ms(r.publish[k].Sub(accepted[b])))
		}
	}
	r.mu.Unlock()
	l["ingest.publish_lag_p50_ms"] = median(lag)
	l["ingest.publish_lag_p75_ms"] = quantile(lag, 0.75)
}

// layerPipeline fills the clean and core metrics: each stage's self time
// (median over the traced days) and the counts that must repeat exactly.
func layerPipeline(l map[string]float64, sum map[string]*spanStats, cst clean.Stats, res *core.Result) {
	self := func(name string) float64 {
		if st := sum[name]; st != nil {
			return median(st.self) / 1e3
		}
		return 0
	}
	l["clean.ms"] = self("clean.Clean")
	l["clean.removed_ratio"] = cst.Rate()
	for _, s := range []string{"split", "pea", "dbscan", "wte", "qcd"} {
		l["core."+s+"_ms"] = self("core." + s)
	}
	l["core.pickups"] = float64(len(res.Pickups))
	l["core.spots"] = float64(len(res.Spots))
	l["core.waits"] = float64(waitCount(res))
}
