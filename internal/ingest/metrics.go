package ingest

import (
	"net/http"
	"strconv"

	"taxiqueue/internal/obs"
)

// metrics is the service's observability surface: every counter the
// /ingest/stats JSON reports is one of these registry-backed collectors, so
// the JSON view and the Prometheus /metrics scrape read the same atomics
// and can never disagree. Histograms cover each stage of the live path:
// HTTP decode → shard queue wait → per-record processing (clean + engine)
// → WAL group commit → slot-close-to-serve lag.
type metrics struct {
	reg *obs.Registry

	decode    *obs.Histogram // ingest_http_decode_seconds
	queueWait *obs.Histogram // ingest_queue_wait_seconds
	process   *obs.Histogram // ingest_process_seconds
	batchRecs *obs.Histogram // ingest_batch_records
	walSync   *obs.Histogram // ingest_wal_sync_seconds
	serveLag  *obs.Histogram // ingest_slot_serve_lag_seconds

	httpReqs   map[int]*obs.Counter // ingest_http_requests_total{code}
	badRecords *obs.Counter         // ingest_bad_records_total

	// Snapshot (RCU read path) series: epoch churn and the published
	// finality watermark. Snapshot age is a GaugeFunc in NewService.
	snapshotEpochs *obs.Counter // ingest_snapshot_epochs_total
	snapshotFinal  *obs.Gauge   // ingest_snapshot_final_below

	// Live spot discovery lifecycle transitions (cumulative; exported as
	// deltas from core.LiveStats at each tracker refresh).
	spotEmerging  *obs.Counter // spot_live_emerging_total
	spotConfirmed *obs.Counter // spot_live_confirmed_total
	spotDecayed   *obs.Counter // spot_live_decayed_total
	spotDropped   *obs.Counter // spot_live_dropped_total

	// removed{reason} breaks rejections down by cause across all shards.
	removedGPS      *obs.Counter
	removedDup      *obs.Counter
	removedImproper *obs.Counter
	removedOOO      *obs.Counter

	shards []shardMetrics
}

// shardMetrics is one shard's per-series collectors (label shard="i").
type shardMetrics struct {
	accepted       *obs.Counter
	rejected       *obs.Counter
	replayed       *obs.Counter
	deduped        *obs.Counter
	ckptErrors     *obs.Counter
	walTruncations *obs.Counter
	walSyncs       *obs.Counter
	walPending     *obs.Gauge
	walSegments    *obs.Gauge
	watermark      *obs.Gauge
	openSlots      *obs.Gauge
	taxis          *obs.Gauge
	held           *obs.Gauge
}

// newMetrics registers every ingest series in reg. Registration is
// idempotent, so pointing two services at one registry shares the series —
// fine for the single queued process, and tests use private registries.
func newMetrics(reg *obs.Registry, shards int) *metrics {
	m := &metrics{
		reg:       reg,
		decode:    reg.Histogram("ingest_http_decode_seconds", "Time to read and decode one /ingest body.", obs.DefBuckets),
		queueWait: reg.Histogram("ingest_queue_wait_seconds", "Time one record spent in its shard queue before processing.", obs.DefBuckets),
		process:   reg.Histogram("ingest_process_seconds", "Per-batch shard processing time (ordering checks, WAL appends, clean, engine ingest, group commit).", obs.DefBuckets),
		batchRecs: reg.Histogram("ingest_batch_records", "Records per queued batch the shard worker processed.", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}),
		walSync:   reg.Histogram("ingest_wal_sync_seconds", "Duration of one WAL group commit (buffered write + fsync).", obs.DefBuckets),
		serveLag:  reg.Histogram("ingest_slot_serve_lag_seconds", "Lag from a (spot, slot) cell first closing in a shard to its first read.", obs.DefBuckets),

		badRecords: reg.Counter("ingest_bad_records_total", "Wire payloads or lines that failed to decode."),

		snapshotEpochs: reg.Counter("ingest_snapshot_epochs_total", "Read-snapshot publications (RCU pointer swaps)."),
		snapshotFinal:  reg.Gauge("ingest_snapshot_final_below", "Finality watermark of the published read snapshot."),

		spotEmerging:  reg.Counter("spot_live_emerging_total", "Live-discovered spots that started tracking (emerging)."),
		spotConfirmed: reg.Counter("spot_live_confirmed_total", "Live spot transitions into confirmed (incl. re-confirmations)."),
		spotDecayed:   reg.Counter("spot_live_decayed_total", "Confirmed live spots whose window support decayed."),
		spotDropped:   reg.Counter("spot_live_dropped_total", "Live spots dropped (dissolved while emerging, or decayed out)."),

		removedGPS:      reg.Counter("ingest_removed_total", "Records removed before the engine, by reason.", obs.Label{Name: "reason", Value: "gps_outlier"}),
		removedDup:      reg.Counter("ingest_removed_total", "Records removed before the engine, by reason.", obs.Label{Name: "reason", Value: "duplicate"}),
		removedImproper: reg.Counter("ingest_removed_total", "Records removed before the engine, by reason.", obs.Label{Name: "reason", Value: "improper_state"}),
		removedOOO:      reg.Counter("ingest_removed_total", "Records removed before the engine, by reason.", obs.Label{Name: "reason", Value: "out_of_order"}),

		httpReqs: make(map[int]*obs.Counter),
	}
	for _, code := range []int{http.StatusOK, http.StatusBadRequest, http.StatusMethodNotAllowed,
		http.StatusRequestEntityTooLarge, http.StatusTooManyRequests,
		http.StatusServiceUnavailable, http.StatusInternalServerError} {
		m.httpReqs[code] = reg.Counter("ingest_http_requests_total",
			"/ingest requests by response code.", obs.Label{Name: "code", Value: strconv.Itoa(code)})
	}
	m.shards = make([]shardMetrics, shards)
	for i := range m.shards {
		l := obs.Label{Name: "shard", Value: strconv.Itoa(i)}
		m.shards[i] = shardMetrics{
			accepted:       reg.Counter("ingest_accepted_total", "Records that survived cleaning and entered the engine.", l),
			rejected:       reg.Counter("ingest_rejected_total", "Records removed by validation, cleaning or the ordering rule.", l),
			replayed:       reg.Counter("ingest_replayed_total", "Raw WAL records replayed at startup.", l),
			deduped:        reg.Counter("ingest_resend_dedup_total", "Re-sent records dropped by the pre-WAL dedup window.", l),
			ckptErrors:     reg.Counter("ingest_checkpoint_errors_total", "WAL commit attempts that failed (the next commit rewrites the records into a new file).", l),
			walTruncations: reg.Counter("ingest_wal_truncations_total", "Startups that truncated a torn WAL tail instead of replaying it.", l),
			walSyncs:       reg.Counter("ingest_wal_syncs_total", "WAL group commits: one fsync covering every record since the last.", l),
			walPending:     reg.Gauge("ingest_wal_pending", "Records appended since the last fsync (what a crash would lose).", l),
			walSegments:    reg.Gauge("ingest_wal_segments", "WAL log files on disk.", l),
			watermark:      reg.Gauge("ingest_watermark_slot", "Shard finality watermark: slots below are final here.", l),
			openSlots:      reg.Gauge("ingest_engine_open_slots", "Engine accumulator cells still open in this shard.", l),
			taxis:          reg.Gauge("ingest_engine_taxis", "Distinct taxis this shard's engine is tracking.", l),
			held:           reg.Gauge("ingest_clean_held_records", "Records this shard's cleaner holds undecided (FREEs after a PAYMENT).", l),
		}
	}
	return m
}

// countHTTP bumps the per-code request counter (codes outside the
// pre-registered set register lazily).
func (m *metrics) countHTTP(code int) {
	c := m.httpReqs[code]
	if c == nil {
		c = m.reg.Counter("ingest_http_requests_total",
			"/ingest requests by response code.", obs.Label{Name: "code", Value: strconv.Itoa(code)})
	}
	c.Inc()
}
