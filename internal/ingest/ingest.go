// Package ingest is the network-facing MDT ingestion service: the missing
// spine between the simulator (or a real operator feed), the embedded
// store, the online stream engine and the queued API server. The deployed
// system of §7.1 is fed by a continuous stream from ~15k taxis into a
// PostgreSQL store that the engine reads; this package reproduces that
// shape as a sharded in-process service:
//
//	POST /ingest        JSON lines or binary record frames
//	        │
//	   validate/clean (streaming §6.1.1 rules, per shard)
//	        │  route by taxi-ID hash
//	   ┌────┴────┬─────────┐
//	 shard 0   shard 1 … shard N-1     bounded queues + backpressure
//	   │ WAL      │ WAL      │ WAL     per-shard store.Log, group commit
//	   │ engine   │ engine   │ engine  per-shard stream.Live
//	   └────┬────┴─────────┘
//	     aggregator                    exact cross-shard SlotStats merge
//	        │
//	  GET /spots (queued)  GET /ingest/stats  GET /metrics
//
// Sharding is by taxi ID, so each taxi's trajectory — the unit over which
// PEA, cleaning and the store's time-order invariant all operate — lives
// entirely inside one shard. Per-shard slot closings carry their raw
// accumulators (core.SlotStats) and the aggregator merges them, so the
// served labels are byte-identical to a single engine that saw every
// record.
//
// Durability is a per-shard write-ahead log on store.Log, one checksummed
// frame per record: each shard streams every arriving record raw
// (pre-clean) into its log and fsyncs in batches — group commit: one write
// and one sync cover up to syncEvery (256) records under load, and the log
// syncs immediately when the queue goes idle. Files rotate at 4 MiB. On
// startup the service replays each shard's log in order through a fresh
// cleaner and engine — the exact live code path — so the recovered state
// is byte-identical to the pre-crash state at the last commit, including
// records the cleaner held undecided. A crash loses at most the records
// of the current commit window (bounded by syncEvery).
//
// Observability: every counter, queue depth, stage latency and removal rate
// is a collector in an obs.Registry (Config.Metrics; private by default).
// The /ingest/stats JSON reads the same collectors the Prometheus /metrics
// scrape renders, so the two views cannot disagree.
package ingest

import (
	"errors"
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"taxiqueue/internal/clean"
	"taxiqueue/internal/core"
	"taxiqueue/internal/mdt"
	"taxiqueue/internal/obs"
	"taxiqueue/internal/store"
	"taxiqueue/internal/stream"
)

var (
	// ErrBackpressure is returned by Accept when a shard queue stays full
	// past the accept deadline (2 s).
	ErrBackpressure = errors.New("ingest: shard queue full past deadline")
	// ErrClosed is returned by Accept and the control-plane ops (Flush,
	// FlushUntil, Checkpoint) after Close or Abort.
	ErrClosed = errors.New("ingest: service closed")
)

// syncEvery is the group-commit interval: how many logged records may
// accumulate before the WAL fsyncs (it also syncs whenever a shard's queue
// goes idle, so a trickle feed is durable almost immediately). The
// crash-loss window, in records.
const syncEvery = 256

// Config parameterizes the service.
type Config struct {
	// Stream configures the per-shard online engines: spots, thresholds
	// and slot grid from the most recent batch run (§7.1). Required, and
	// Stream.Grid must be set.
	Stream stream.Config
	// Clean holds the §6.1.1 validation rules applied to every arriving
	// record before it is accepted. Required (ValidFrame must be set).
	Clean clean.Config
	// Shards is the worker count; records route by taxi-ID hash. 4 when 0.
	Shards int
	// WALDir, when non-empty, enables durability: shard i appends the raw
	// records it accepted to the log under WALDir/shard-NNN/ and replays
	// them on startup.
	WALDir string
	// FS is the filesystem the WAL writes go through; the real filesystem
	// when nil. The chaos harness injects disk faults here.
	FS store.FS
	// Metrics is the registry the service's collectors live in; a private
	// registry when nil. Hand it obs.Default (as queued does) to surface
	// the series on a process-wide /metrics endpoint.
	Metrics *obs.Registry

	// History, when set, receives every newly-final (spot, slot) context:
	// each cross-shard watermark advance appends the snapshot's new final
	// slots as day 0's cells, and Flush/FlushUntil/Close double as history
	// durability barriers. Appends are idempotent on the history side, so
	// WAL replay and racing shards cannot double-record a slot.
	History HistoryAppender

	// LiveSpots, when enabled, runs online queue-spot discovery over the
	// pickups that land outside every batch spot: the batch spot detector
	// over a sliding window, whose confirmed/emerging/decaying spots ride
	// the read snapshot (Snapshot.Live) and /spots?live=1.
	LiveSpots LiveSpotsConfig

	// testStall, when set, runs at the top of every shard worker
	// iteration; tests use it to wedge a shard and exercise backpressure.
	// A stalled worker cannot handle control ops either, so tests must
	// release the stall before Flush/Close/Abort.
	testStall func(shard int)
	// queueDepth (1024 records a shard), blockTimeout (2 s, how long
	// Accept waits for queue space) and segmentBytes (store.Log's 4 MiB WAL
	// files when 0): only tests set them, to reach their cases quickly.
	queueDepth   int
	blockTimeout time.Duration
	segmentBytes int64
}

func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.queueDepth == 0 {
		c.queueDepth = 1024
	}
	if c.blockTimeout == 0 {
		c.blockTimeout = 2 * time.Second
	}
	if c.Stream.Amplify.Factor == 0 {
		c.Stream.Amplify = core.NoAmplification
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.FS == nil {
		c.FS = store.OS
	}
	return c
}

// HistoryAppender is the sink for finalized slot contexts (implemented by
// history.Store; an interface here so ingest does not depend on the
// storage layout). AppendSlots must be idempotent per (day, slot) and
// safe for concurrent use; Flush is the durability barrier.
type HistoryAppender interface {
	AppendSlots(day, lo, hi int, at func(spot, slot int) (core.SlotFeatures, core.QueueType)) error
	Flush() error
}

// TeeHistory fans every append and flush out to several sinks — the way
// the history store and the forecast learner both hang off one Config
// seam. Nil sinks are skipped; the first error wins but every sink still
// sees every call (a failing history disk must not starve the forecaster,
// and vice versa). Nil or all-nil input returns nil, usable directly as
// Config.History.
func TeeHistory(sinks ...HistoryAppender) HistoryAppender {
	kept := make([]HistoryAppender, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return teeHistory(kept)
}

type teeHistory []HistoryAppender

func (t teeHistory) AppendSlots(day, lo, hi int, at func(spot, slot int) (core.SlotFeatures, core.QueueType)) error {
	var first error
	for _, s := range t {
		if err := s.AppendSlots(day, lo, hi, at); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (t teeHistory) Flush() error {
	var first error
	for _, s := range t {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Service is the sharded ingestion service. All methods are safe for
// concurrent use.
type Service struct {
	cfg    Config
	grid   core.SlotGrid
	shards []*shard
	agg    *aggregator
	met    *metrics
	live   *liveTracker // nil unless Config.LiveSpots.Enabled

	// estVersion counts provisional (current-slot) publications across all
	// shards; the serve-side estimate cache keys on it.
	estVersion atomic.Uint64

	// closed gates Accept (lock-free fast path); ctlMu + stopped gate the
	// control plane: a control op holds the read side while its workers
	// are guaranteed alive, Close/Abort take the write side to stop them.
	// Without this gate, a Flush racing (or following) Close would post to
	// workers that already exited and block forever on the reply.
	closed  atomic.Bool
	ctlMu   sync.RWMutex
	stopped bool
}

// NewService validates cfg, replays any existing WAL files, and starts the
// shard workers.
func NewService(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if cfg.Stream.Grid.Slots == 0 {
		return nil, errors.New("ingest: Stream.Grid must be set")
	}
	if len(cfg.Stream.Spots) != len(cfg.Stream.Thresholds) {
		return nil, fmt.Errorf("ingest: %d spots but %d thresholds",
			len(cfg.Stream.Spots), len(cfg.Stream.Thresholds))
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("ingest: bad shard count %d", cfg.Shards)
	}
	met := newMetrics(cfg.Metrics, cfg.Shards)
	s := &Service{
		cfg:  cfg,
		grid: cfg.Stream.Grid,
		met:  met,
		agg: &aggregator{
			grid:  cfg.Stream.Grid,
			ths:   cfg.Stream.Thresholds,
			amp:   cfg.Stream.Amplify,
			met:   met,
			cells: make(map[cellKey]*cell),
		},
	}
	if cfg.LiveSpots.Enabled {
		// Built before the shards: WAL replay streams through the same
		// emit hook as the live feed, so replayed pickups re-seed the
		// discovery window too.
		lt, err := newLiveTracker(cfg.LiveSpots, s.agg, met)
		if err != nil {
			return nil, fmt.Errorf("ingest: live spots: %w", err)
		}
		s.live = lt
	}
	if cfg.WALDir != "" {
		if err := os.MkdirAll(cfg.WALDir, 0o755); err != nil {
			return nil, fmt.Errorf("ingest: wal dir: %w", err)
		}
	}
	// Publish the epoch-1 snapshot before the shards exist so a replayed
	// WAL (whose ingest path republishes on watermark advances) never sees
	// a nil pointer; the replay then advances it to cover every slot it
	// finalized.
	s.agg.init(0)
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		sh, err := newShard(s, i)
		if err != nil {
			return nil, err
		}
		s.shards[i] = sh
	}
	s.agg.advance(s.minClosed())
	// A replayed WAL finalized slots with only some shards alive (each
	// shard replays before the next is built), so the per-shard emit hook
	// saw minClosed == 0 throughout; record the post-replay watermark now.
	s.appendHistory()
	cfg.Metrics.GaugeFunc("ingest_aggregator_cells",
		"Live (spot, slot) cells retained by the aggregator.",
		func() float64 { return float64(s.agg.cellCount()) })
	cfg.Metrics.GaugeFunc("ingest_snapshot_age_seconds",
		"Seconds since the current read snapshot was published.",
		func() float64 { return time.Since(s.Snapshot().At).Seconds() })
	if s.live != nil {
		cfg.Metrics.GaugeFunc("spot_live_tracked",
			"Live-discovered spots currently tracked (any lifecycle state).",
			func() float64 { return float64(s.live.stats().Tracked) })
		cfg.Metrics.GaugeFunc("spot_live_window_points",
			"Pickups alive in the live discovery window.",
			func() float64 { return float64(s.live.stats().WindowPoints) })
	}
	for i, sh := range s.shards {
		q := &sh.qLen
		cfg.Metrics.GaugeFunc("ingest_queue_depth", "Records waiting in the shard queue.",
			func() float64 { return float64(q.Load()) },
			obs.Label{Name: "shard", Value: fmt.Sprint(i)})
	}
	for _, sh := range s.shards {
		go sh.run()
	}
	return s, nil
}

// Registry returns the registry holding the service's collectors (the one
// from Config.Metrics, or the private default). Mount it as /metrics.
func (s *Service) Registry() *obs.Registry { return s.cfg.Metrics }

// shardIndex routes a taxi ID to its shard (FNV-1a; allocation free).
func shardIndex(id string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// Accept routes records to their shard queues, waiting for queue space up
// to the accept deadline (2 s), and reports how many entered a queue. The
// fan-out is batched: one pass groups the request's records into per-shard
// slabs (copied, so the caller may reuse recs) and each slab travels as a
// single channel send — one clock read and one queue-wait observation
// cover the whole request instead of every record. Records must be
// time-ordered per taxi.
//
// A deadline miss stops the batch early with ErrBackpressure and n is the
// smallest index not yet handed to a shard: the records of
// recs[:n] are all delivered, and a record past n that slipped into an
// earlier slab is absorbed by the per-taxi dedup window when the client
// re-sends from n — so retry-from-n is exact, not just safe. With one
// shard (or one taxi per request) n is exactly the delivered prefix.
func (s *Service) Accept(recs []mdt.Record) (int, error) {
	if s.closed.Load() {
		return 0, ErrClosed
	}
	if len(recs) == 0 {
		return 0, nil
	}
	at := time.Now()
	nsh := len(s.shards)
	chunk := s.cfg.queueDepth
	if chunk > slabMax {
		chunk = slabMax
	}
	deadline := time.NewTimer(s.cfg.blockTimeout)
	defer deadline.Stop()
	cur := make([]*recSlab, nsh)  // open (unsent) slab per shard
	first := make([]int, nsh)     // recs index of cur's first record
	flush := func(si int) error { // send shard si's open slab
		if err := s.shards[si].deliver(recBatch{slab: cur[si], at: at}, deadline); err != nil {
			return err
		}
		cur[si] = nil
		return nil
	}
	fail := func(next int) (int, error) { // smallest undelivered index
		n := next
		for si, slab := range cur {
			if slab != nil {
				if first[si] < n {
					n = first[si]
				}
				putSlab(slab)
			}
		}
		return n, ErrBackpressure
	}
	for i := range recs {
		si := shardIndex(recs[i].TaxiID, nsh)
		if cur[si] == nil {
			cur[si] = getSlab()
			first[si] = i
		}
		cur[si].recs = append(cur[si].recs, recs[i])
		if len(cur[si].recs) >= chunk {
			if err := flush(si); err != nil {
				return fail(i + 1)
			}
		}
	}
	for si := range cur {
		if cur[si] != nil {
			if err := flush(si); err != nil {
				return fail(len(recs))
			}
		}
	}
	return len(recs), nil
}

// control broadcasts an op to every live shard and waits for all replies;
// the first shard error wins. The read lock pins the workers alive for the
// whole exchange: after Close or Abort it reports ErrClosed instead of
// posting to exited workers (which used to fill the ctl buffer and hang
// forever — exposed over HTTP as a stuck /ingest/flush).
func (s *Service) control(op ctlOp, at time.Time) error {
	s.ctlMu.RLock()
	defer s.ctlMu.RUnlock()
	if s.stopped {
		return ErrClosed
	}
	return s.broadcast(op, at)
}

// broadcast fans op to every shard and collects the replies. Callers must
// hold ctlMu (either side) with stopped false, or be the op that is
// setting stopped.
func (s *Service) broadcast(op ctlOp, at time.Time) error {
	replies := make([]chan error, len(s.shards))
	for i, sh := range s.shards {
		replies[i] = make(chan error, 1)
		sh.ctl <- ctlMsg{op: op, at: at, reply: replies[i]}
	}
	var first error
	for _, ch := range replies {
		if err := <-ch; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Flush drains every shard, releases the cleaners' held records, closes
// every open slot, and commits — the whole grid becomes final and durable.
// Late records are still counted afterwards but can no longer change a
// label.
// For a paused feed the op runs after the backlog drains (the "end of day"
// switch, and what graceful Close uses); under sustained load it runs
// after at most one queue depth of records. Returns ErrClosed after
// Close/Abort. A failed WAL commit holds back neither the live-spot
// refresh nor history's durability barrier, which lives on another disk:
// both still run, and the WAL error is returned joined with history's.
func (s *Service) Flush() error {
	err := s.control(opFlush, time.Time{})
	if errors.Is(err, ErrClosed) {
		return err
	}
	if s.live != nil {
		// The feed is over: push the discovery clock to the grid's end so
		// window points expire and decaying spots age out.
		s.live.advance(s.grid.End())
	}
	return errors.Join(err, s.flushHistory())
}

// FlushUntil finalizes every slot the feed can no longer touch given its
// clock reached now, without closing the current slot — the timer-driven
// variant for feeds that pause mid-slot. Returns ErrClosed after
// Close/Abort; a failed WAL commit is handled as in Flush.
func (s *Service) FlushUntil(now time.Time) error {
	err := s.control(opFlushUntil, now)
	if errors.Is(err, ErrClosed) {
		return err
	}
	if s.live != nil {
		s.live.advance(now)
	}
	return errors.Join(err, s.flushHistory())
}

// drainUntil is FlushUntil minus the durability barrier: the same slot
// finalization and queue round-trip, but no synchronous WAL commit.
// Benchmarks use it to settle the shards between timed feed chunks without
// charging the per-record numbers a per-flush fsync at a rate no real
// deployment would see (a production flush is end-of-feed, not per-11k
// records). Everything durable-cost-related that is per-record — encode,
// buffered write, pipelined group commit — still runs on the clock.
func (s *Service) drainUntil(now time.Time) error { return s.control(opDrainUntil, now) }

// Checkpoint is the bare durability barrier: every shard drains its queue
// and commits its WAL, so every record accepted before the call is on
// stable storage when it returns nil. Returns ErrClosed after Close/Abort.
func (s *Service) Checkpoint() error { return s.control(opCheckpoint, time.Time{}) }

// Close gracefully shuts down: stops accepting, drains the queues, flushes
// cleaners and engines, takes a final commit and stops the workers.
// Close is idempotent; concurrent control ops either finish first (the
// write lock waits for them) or observe ErrClosed.
func (s *Service) Close() error {
	s.closed.Store(true)
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	if s.stopped {
		return nil
	}
	s.stopped = true
	err := s.broadcast(opStop, time.Time{})
	if herr := s.flushHistory(); err == nil {
		err = herr
	}
	return err
}

// Abort stops the workers without flushing, draining or committing — the
// crash-test switch: on-disk state stays as the last write-out left it.
func (s *Service) Abort() {
	s.closed.Store(true)
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	if s.stopped {
		return
	}
	s.stopped = true
	_ = s.broadcast(opAbort, time.Time{})
}

// Health reports whether the service can still do its job: nil while the
// workers are alive and, with durability on, the WAL directory is
// writable. It is the live half of queued's /healthz readiness check.
func (s *Service) Health() error {
	s.ctlMu.RLock()
	stopped := s.stopped
	s.ctlMu.RUnlock()
	if stopped || s.closed.Load() {
		return ErrClosed
	}
	if s.cfg.WALDir != "" {
		f, err := os.CreateTemp(s.cfg.WALDir, ".healthz-*")
		if err != nil {
			return fmt.Errorf("ingest: wal dir not writable: %w", err)
		}
		name := f.Name()
		f.Close()
		os.Remove(name)
	}
	return nil
}

// appendHistory records the current snapshot's final slots into the
// configured history sink. Called on every cross-shard watermark advance
// (from shard emit paths, possibly concurrently) and after WAL replay;
// the history side's per-day watermark makes overlapping calls no-ops, so
// ordering between racing shards does not matter. Append errors are
// logged, not propagated — a failing history disk must not stall ingest
// (the sink's log rewrites what is not durable into a new file, and the
// flush barrier surfaces persistent failure).
func (s *Service) appendHistory() {
	h := s.cfg.History
	if h == nil {
		return
	}
	snap := s.Snapshot()
	if snap.FinalBelow == 0 {
		return
	}
	err := h.AppendSlots(0, 0, snap.FinalBelow,
		func(spot, slot int) (core.SlotFeatures, core.QueueType) {
			f, l, _ := snap.Context(spot, slot)
			return f, l
		})
	if err != nil {
		log.Printf("ingest: history append: %v", err)
	}
}

// flushHistory is the history half of the Flush durability barrier.
func (s *Service) flushHistory() error {
	if s.cfg.History == nil {
		return nil
	}
	s.appendHistory()
	return s.cfg.History.Flush()
}

// minClosed returns the cross-shard finality watermark: every slot below it
// is final in every shard, so its merged context can never change.
func (s *Service) minClosed() int {
	min := int(s.met.shards[0].watermark.Value())
	for i := range s.met.shards[1:] {
		if w := int(s.met.shards[i+1].watermark.Value()); w < min {
			min = w
		}
	}
	return min
}

// Snapshot returns the current RCU-published read view: one atomic pointer
// load, never nil, immutable. Handlers that make several related reads
// (every spot of one slot, say) should load it once and read through it so
// all answers come from one consistent epoch.
func (s *Service) Snapshot() *Snapshot { return s.agg.pub.Load() }

// LiveSpots returns the online-discovered queue spots current at the
// published snapshot (nil when live discovery is disabled). Lock-free; the
// slice is immutable.
func (s *Service) LiveSpots() []core.LiveSpot { return s.Snapshot().Live() }

// Context returns the merged features and label for (spot, slot); ok is
// false while any shard could still contribute to the slot (or the indexes
// are out of range). A final slot with no activity classifies like an
// empty batch slot. Lock-free: one snapshot pointer load plus an array
// read.
func (s *Service) Context(spot, slot int) (core.SlotFeatures, core.QueueType, bool) {
	return s.Snapshot().Context(spot, slot)
}

// Label is Context without the features.
func (s *Service) Label(spot, slot int) (core.QueueType, bool) {
	_, l, ok := s.Context(spot, slot)
	return l, ok
}

// ContextLocked is the pre-snapshot read path — watermark gate plus a
// mutex-guarded lazy cell evaluation — retained as the reference
// implementation the equivalence tests and the BenchmarkServe* baselines
// compare the lock-free path against. Not for production handlers.
func (s *Service) ContextLocked(spot, slot int) (core.SlotFeatures, core.QueueType, bool) {
	if spot < 0 || spot >= len(s.cfg.Stream.Spots) || slot < 0 || slot >= s.grid.Slots {
		return core.SlotFeatures{}, core.Unidentified, false
	}
	if slot >= s.minClosed() {
		return core.SlotFeatures{}, core.Unidentified, false
	}
	f, l := s.agg.context(spot, slot)
	return f, l, true
}

// Estimate is the zero-delay provisional view of the slot the feed's clock
// is currently inside, merged exactly across the per-shard provisional
// snapshots (SlotStats merging is commutative and exact). Version is the
// publication counter the serve-side cache keys on; Slot is -1 when no
// shard has a clock inside the grid. Labels[i] is spot i's extrapolated
// context and OK[i] reports whether there was enough signal (≥20% of the
// slot elapsed and any activity). Lock-free: per-shard atomic pointer
// loads, merge work proportional to the active spots of one slot.
type Estimate struct {
	Version uint64
	AsOf    time.Time
	Slot    int
	Labels  []core.QueueType
	OK      []bool
}

// Estimate builds the current provisional estimate. The version is read
// before the shard snapshots, so a publication racing the build at worst
// causes the next request to rebuild — never a stale cache past its epoch.
func (s *Service) Estimate() Estimate {
	est := Estimate{
		Version: s.estVersion.Load(),
		Slot:    -1,
		Labels:  make([]core.QueueType, len(s.cfg.Stream.Spots)),
		OK:      make([]bool, len(s.cfg.Stream.Spots)),
	}
	for i := range est.Labels {
		est.Labels[i] = core.Unidentified
	}
	provs := make([]*stream.Provisional, 0, len(s.shards))
	for _, sh := range s.shards {
		if p := sh.prov.Load(); p != nil {
			provs = append(provs, p)
			if p.Clock.After(est.AsOf) {
				est.AsOf = p.Clock
				est.Slot = p.Slot
			}
		}
	}
	if est.Slot < 0 {
		return est
	}
	for spot := range est.Labels {
		var merged core.SlotStats
		for _, p := range provs {
			if p.Slot == est.Slot && p.Stats != nil && p.Stats[spot] != nil {
				merged.Merge(p.Stats[spot])
			}
		}
		est.Labels[spot], est.OK[spot] = stream.EstimateFromStats(
			&merged, s.grid, est.Slot, est.AsOf, s.cfg.Stream.Amplify, s.cfg.Stream.Thresholds[spot])
	}
	return est
}

// EstimateVersion returns the provisional publication counter without
// building an estimate — the cache's cheap freshness probe.
func (s *Service) EstimateVersion() uint64 { return s.estVersion.Load() }

// ShardStats is one shard's counters.
type ShardStats struct {
	Shard       int   `json:"shard"`
	Accepted    int64 `json:"accepted"`          // survived cleaning, in the engine
	Rejected    int64 `json:"rejected"`          // removed by validation/cleaning/ordering
	Replayed    int64 `json:"replayed"`          // raw WAL records replayed at startup
	Deduped     int64 `json:"resend_deduped"`    // re-sent records dropped pre-WAL
	QueueDepth  int   `json:"queue_depth"`       // records waiting right now
	ClosedBelow int   `json:"closed_below"`      // this shard's slot finality watermark
	WALPending  int64 `json:"wal_pending"`       // records appended since the last fsync (what a crash would lose)
	WALSyncs    int64 `json:"wal_syncs"`         // group commits (one fsync covering a batch)
	WALSegments int64 `json:"wal_segments"`      // WAL log files on disk
	CkptErrors  int64 `json:"checkpoint_errors"` // WAL commit attempts that failed
	Truncations int64 `json:"wal_truncations"`   // startups that cut a torn WAL tail
}

// Stats is the /ingest/stats payload.
type Stats struct {
	Shards     []ShardStats `json:"shards"`
	Accepted   int64        `json:"accepted"`
	Rejected   int64        `json:"rejected"`
	Replayed   int64        `json:"replayed"`
	BadRecords int64        `json:"bad_records"` // wire payloads that failed to decode
	FinalBelow int          `json:"final_below"` // min shard watermark: slots below are served final
}

// Stats snapshots every counter — the same registry collectors /metrics
// renders, so the JSON and Prometheus views always agree.
func (s *Service) Stats() Stats {
	out := Stats{
		Shards:     make([]ShardStats, len(s.shards)),
		BadRecords: s.met.badRecords.Value(),
		FinalBelow: s.minClosed(),
	}
	for i, sh := range s.shards {
		sm := &s.met.shards[i]
		st := ShardStats{
			Shard:       i,
			Accepted:    sm.accepted.Value(),
			Rejected:    sm.rejected.Value(),
			Replayed:    sm.replayed.Value(),
			Deduped:     sm.deduped.Value(),
			QueueDepth:  int(sh.qLen.Load()),
			ClosedBelow: int(sm.watermark.Value()),
			WALPending:  sm.walPending.Value(),
			WALSyncs:    sm.walSyncs.Value(),
			WALSegments: sm.walSegments.Value(),
			CkptErrors:  sm.ckptErrors.Value(),
			Truncations: sm.walTruncations.Value(),
		}
		out.Shards[i] = st
		out.Accepted += st.Accepted
		out.Rejected += st.Rejected
		out.Replayed += st.Replayed
	}
	return out
}

// WALPath names shard i's newest WAL file under dir, or "" when the shard
// has none — exported so tools and the chaos harness can aim at the one
// file a crash may legitimately tear.
func WALPath(dir string, i int) string {
	files, _ := store.LogFiles(shardWALDir(dir, i))
	if len(files) == 0 {
		return ""
	}
	return files[len(files)-1]
}
