package ingest

import (
	"fmt"
	"log"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"taxiqueue/internal/clean"
	"taxiqueue/internal/mdt"
	"taxiqueue/internal/store"
	"taxiqueue/internal/stream"
)

// ctlOp is a shard control operation. An op is handled after the backlog
// that was queued when the worker picked it up — so a quiescent feed gets
// the old drain-everything semantics, while a sustained producer can delay
// an op by at most one queue depth instead of starving it forever.
type ctlOp uint8

const (
	opFlush      ctlOp = iota // cleaner flush + close every slot + commit
	opFlushUntil              // close slots final as of msg.at, then commit
	opCheckpoint              // commit the WAL
	opStop                    // graceful: opFlush then exit
	opAbort                   // crash-test: exit immediately, no drain, no commit
)

type ctlMsg struct {
	op    ctlOp
	at    time.Time
	reply chan error
}

// slabMax bounds the records in one queued slab: large enough that a bulk
// feed batch usually travels as a single channel send, small enough that
// one slab never monopolizes the worker or holds a request's memory alive
// too long in the pool.
const slabMax = 1024

// recSlab is a pooled record slice — the unit of queueing. Accept fills
// one per shard per request (chunked at min(slabMax, queue depth)) and the
// worker returns it to the pool after processing.
type recSlab struct {
	recs []mdt.Record
}

var slabPool = sync.Pool{
	New: func() any { return &recSlab{recs: make([]mdt.Record, 0, slabMax)} },
}

func getSlab() *recSlab  { return slabPool.Get().(*recSlab) }
func putSlab(s *recSlab) { s.recs = s.recs[:0]; slabPool.Put(s) }

// recBatch is one queue element: a slab of records plus the enqueue
// instant, so the worker can report queue wait once per batch instead of
// once per record.
type recBatch struct {
	slab *recSlab
	at   time.Time
}

// engineGaugeEvery is how many processed records pass between refreshes of
// the engine-introspection gauges (open slots, tracked taxis) — they are
// O(spots) to read, too hot for every record and plenty fresh at this rate.
const engineGaugeEvery = 256

// shard owns one partition of the fleet: a bounded record queue, a
// streaming cleaner, a WAL (a store.Log with one record per frame) and an
// online engine. Only the shard's worker goroutine touches the
// cleaner/engine/WAL; everything the rest of the service reads is an
// atomic registry collector.
type shard struct {
	id  int
	svc *Service
	ch  chan recBatch
	ctl chan ctlMsg

	// qLen counts the records queued (not slabs): the unit the queue depth
	// and backpressure are defined over. Producers reserve space
	// here before sending; the worker releases it when it picks a batch up.
	qLen atomic.Int64
	// space wakes one blocked producer after the worker frees capacity; a
	// buffered token so a release racing a fresh waiter is never lost.
	space chan struct{}

	cleaner *clean.Streamer
	engine  *stream.Live
	wal     *store.Log // nil when durability is off
	walDir  string
	walBuf  []byte // reused encoding of the record being logged

	// tails enforces the per-taxi time-order rule uniformly: it applies
	// before the WAL *and* when durability is off, so both modes reject the
	// same records and serve identical labels from identical input. The
	// rule compares whole seconds because the JSON-lines wire truncates
	// times to the second (RFC3339): a taxi's records that arrive over both
	// wires may disagree below the second, and that jitter is not disorder.
	//
	// Each tail also keeps every ordering-accepted record of the taxi's
	// newest second — the dedup window that makes re-sent feeds exactly
	// idempotent. A resilient client that cannot know whether a failed
	// request was applied re-sends it; records strictly before the tail
	// second are rejected as out-of-order, and records *at* the tail second
	// that byte-match an already-accepted one are rejected as duplicates
	// (whole-second ordering alone would re-accept a re-sent record that
	// shares its second with, but differs from, the newest survivor). The
	// one exception: while the cleaner holds this taxi's records pending,
	// an exact duplicate PAYMENT is a §6.1.1 state signal (it resolves a
	// PAYMENT-FREE tail as the improper-state pattern) and must pass
	// through to the cleaner, which deduplicates it itself after acting on
	// it.
	tails map[string]*taxiTail

	met       *metrics
	sm        *shardMetrics
	sinceStat int // records since the engine gauges were refreshed
	lastWM    int // engine watermark at the last emit (publish trigger)

	// prov is this shard's published provisional (current-slot) snapshot;
	// the worker stores, Service.Estimate loads.
	prov atomic.Pointer[stream.Provisional]

	done chan struct{}
}

// taxiTail is one taxi's ordering state: its newest accepted Unix second
// and every record accepted at that second (the re-send dedup window).
type taxiTail struct {
	sec  int64
	recs []mdt.Record
}

// contains reports whether an identical record was already accepted in the
// tail second. The window holds one record per report interval in the
// common case, so the linear scan is effectively free.
func (t *taxiTail) contains(r mdt.Record) bool {
	for i := range t.recs {
		if t.recs[i].Equal(r) {
			return true
		}
	}
	return false
}

// shardWALDir is shard i's log directory under the service WAL dir.
func shardWALDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
}

// newShard builds shard i, replaying its WAL if one exists. A torn tail on
// the newest file — what a crash mid-commit leaves — recovers the longest
// clean prefix instead of failing startup: the service resumes from the
// last durable frame and the truncation is counted and logged. Damage to
// an older file is real corruption and fails loudly.
func newShard(s *Service, i int) (*shard, error) {
	sh := &shard{
		id:      i,
		svc:     s,
		ch:      make(chan recBatch, s.cfg.queueDepth),
		ctl:     make(chan ctlMsg, 4),
		space:   make(chan struct{}, 1),
		cleaner: clean.NewStreamer(s.cfg.Clean),
		engine:  stream.NewLive(s.cfg.Stream),
		tails:   make(map[string]*taxiTail),
		met:     s.met,
		sm:      &s.met.shards[i],
		done:    make(chan struct{}),
	}
	if s.cfg.WALDir == "" {
		return sh, nil
	}
	sh.walDir = shardWALDir(s.cfg.WALDir, i)
	sm := sh.sm
	walCfg := store.LogConfig{
		FS:           s.cfg.FS,
		SegmentBytes: s.cfg.segmentBytes,
		OnSync: func(took time.Duration, err error) {
			if err != nil {
				sm.ckptErrors.Inc()
				log.Printf("ingest: shard %d wal sync: %v", i, err)
				return
			}
			sm.walSyncs.Inc()
			s.met.walSync.Observe(took.Seconds())
		},
	}
	wal, rec, err := store.OpenLog(sh.walDir, nil, walCfg, func(_ store.Ref, p []byte) error {
		r, n, err := mdt.DecodeBinary(p)
		if err == nil && n != len(p) {
			err = fmt.Errorf("%d trailing bytes after the record", len(p)-n)
		}
		if err != nil {
			return err
		}
		sh.trackTail(sh.tails[r.TaxiID], r)
		sh.pushClean(r)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ingest: shard %d recovery: %w", i, err)
	}
	sh.wal = wal
	sh.sm.replayed.Add(int64(rec.Records))
	if rec.Truncated() {
		sh.sm.walTruncations.Inc()
		log.Printf("ingest: shard %d WAL %s damaged (%v): recovered %d records, torn tail truncated",
			i, sh.walDir, rec.Err, rec.Records)
	}
	sh.sm.walSegments.Set(int64(wal.Files()))
	return sh, nil
}

// trackTail folds one ordering-accepted record into its taxi's tail window
// and returns the (possibly newly created) tail, so batch processing can
// keep the pointer memoized across a run of same-taxi records. Callers
// must already have applied the ordering rule, and tail must be the
// current entry for r.TaxiID (nil when absent).
func (sh *shard) trackTail(tail *taxiTail, r mdt.Record) *taxiTail {
	t := r.Time.Unix()
	if tail == nil {
		tail = &taxiTail{sec: t, recs: []mdt.Record{r}}
		sh.tails[r.TaxiID] = tail
		return tail
	}
	if t > tail.sec {
		tail.sec = t
		tail.recs = append(tail.recs[:0], r)
		return tail
	}
	tail.recs = append(tail.recs, r)
	return tail
}

// reserve claims room for n records in the queue; false when the claim
// would exceed depth. Lock-free so concurrent Accept calls race safely.
func (sh *shard) reserve(n, depth int64) bool {
	for {
		cur := sh.qLen.Load()
		if cur+n > depth {
			return false
		}
		if sh.qLen.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// release returns capacity and wakes one blocked producer.
func (sh *shard) release(n int64) {
	sh.qLen.Add(-n)
	select {
	case sh.space <- struct{}{}:
	default:
	}
}

// deliver enqueues one batch, waiting for queue space up to the shared
// per-Accept deadline. Because every queued slab holds at least one
// reserved record and reservations never exceed depth, the channel (depth
// slabs) always has room once the reservation succeeds.
func (sh *shard) deliver(b recBatch, deadline *time.Timer) error {
	n := int64(len(b.slab.recs))
	depth := int64(sh.svc.cfg.queueDepth)
	for {
		if sh.reserve(n, depth) {
			sh.ch <- b
			return nil
		}
		select {
		case <-sh.space:
		case <-deadline.C:
			return ErrBackpressure
		}
	}
}

// run is the worker loop. The select is fair between records and control
// ops, so a sustained producer can no longer starve Flush/Checkpoint; the
// drain inside handle keeps op-after-backlog ordering for records already
// queued when the op is picked up.
func (sh *shard) run() {
	defer close(sh.done)
	for {
		if hook := sh.svc.cfg.testStall; hook != nil {
			hook(sh.id)
		}
		select {
		case b := <-sh.ch:
			sh.take(b)
		case msg := <-sh.ctl:
			if sh.handle(msg) {
				return
			}
		}
	}
}

// take releases the batch's queue reservation (before processing, so
// producers refill the queue while the worker chews) and processes it.
func (sh *shard) take(b recBatch) {
	sh.release(int64(len(b.slab.recs)))
	sh.processBatch(b)
}

// handle runs one control op; true means exit the worker. Every op except
// Abort first drains the backlog present at pickup time: for a paused feed
// that is the whole queue (the historical "ops run once the queue is
// empty" contract), and under sustained load it bounds the op's delay at
// one queue depth.
func (sh *shard) handle(msg ctlMsg) bool {
	if msg.op != opAbort {
		for n := len(sh.ch); n > 0; n-- {
			sh.take(<-sh.ch)
		}
	}
	var err error
	exit := false
	switch msg.op {
	case opFlush:
		sh.flushAll()
		err = sh.commit()
	case opFlushUntil:
		sh.emit(sh.engine.FlushUntil(msg.at))
		// A FlushUntil doubles as a durability barrier: callers use it to
		// settle the queue, so everything logged must be on stable storage
		// (and wal_pending truthful) when the reply lands, and a failed
		// commit is the caller's error.
		err = sh.commit()
	case opCheckpoint:
		err = sh.commit()
	case opStop:
		sh.flushAll()
		err = sh.commit()
		exit = true
	case opAbort:
		exit = true
	}
	if exit && sh.wal != nil {
		if msg.op == opAbort {
			sh.wal.Abort()
		} else if cerr := sh.wal.Close(); err == nil {
			err = cerr
		}
	}
	sh.refreshEngineGauges()
	msg.reply <- err
	return exit
}

// flushAll releases the cleaner's held records into the engine (they are
// already in the WAL, which logs pre-clean), then closes every slot.
func (sh *shard) flushAll() {
	for _, r := range sh.cleaner.Flush() {
		sh.ingest(r)
	}
	sh.emit(sh.engine.Flush())
}

// processBatch runs one slab through the live path with the per-batch costs
// paid once: one clock read, one queue-wait observation, one batch-size
// observation, one process-histogram observation, one group commit — where
// the per-record loop before batching took a time.Now() and two histogram
// observes for every record. The tail pointer is memoized across runs of
// same-taxi records, so a bulk per-taxi feed does one map lookup per run
// instead of per record.
func (sh *shard) processBatch(b recBatch) {
	start := time.Now()
	recs := b.slab.recs
	sh.met.queueWait.Observe(start.Sub(b.at).Seconds())
	sh.met.batchRecs.Observe(float64(len(recs)))
	lastID := ""
	var tail *taxiTail
	for i := range recs {
		if id := recs[i].TaxiID; id != lastID || tail == nil {
			lastID = id
			tail = sh.tails[id]
		}
		tail = sh.process(recs[i], tail)
	}
	if sh.wal != nil {
		sh.maybeSync()
	}
	sh.met.process.Since(start)
	if sh.sinceStat += len(recs); sh.sinceStat >= engineGaugeEvery {
		sh.refreshEngineGauges()
	}
	putSlab(b.slab)
}

// process applies the ordering rule and the re-send dedup window, logs one
// arriving record to the WAL, cleans it and ingests the survivors. The
// record hits the WAL before the cleaner sees it so that a commit always
// captures the cleaner's held records too. Returns the record's tail
// window for the caller's memoization.
func (sh *shard) process(rec mdt.Record, tail *taxiTail) *taxiTail {
	// One ordering rule for both durability modes: per-taxi time order
	// (client bug otherwise). Checking here — not via store append — means
	// WAL-on and WAL-off reject the same records, the cleaner never sees a
	// time-travelling record, and replay can never fail.
	t := rec.Time.Unix()
	if tail != nil && t < tail.sec {
		sh.sm.rejected.Inc()
		sh.met.removedOOO.Inc()
		return tail
	}
	// Same-second arrivals: drop a byte-identical re-send (or GPRS
	// retransmission) before it reaches WAL and cleaner — unless it is a
	// PAYMENT while the cleaner holds this taxi's records pending, in
	// which case the duplicate is a state signal it must see (see the
	// tails field doc). A duplicate FREE or occupied record is never a
	// signal: passing one through would re-extend or re-release a pending
	// hold the WAL already captured, so it is dropped here.
	if tail != nil && t == tail.sec && tail.contains(rec) &&
		(rec.State != mdt.Payment || sh.cleaner.PendingFor(rec.TaxiID) == 0) {
		sh.sm.rejected.Inc()
		sh.sm.deduped.Inc()
		sh.met.removedDup.Inc()
		return tail
	}
	tail = sh.trackTail(tail, rec)
	if sh.wal != nil {
		sh.walBuf = rec.AppendBinary(sh.walBuf[:0])
		sh.wal.Append(sh.walBuf)
	}
	sh.pushClean(rec)
	return tail
}

// maybeSync is the group-commit trigger, run once per batch: start a
// pipelined commit when enough records accumulated (syncEvery) or when the
// queue went idle. The worker only pays the buffered write; the fsync runs
// on the WAL's background syncer, so under load one fsync covers many
// batches and the hot path never waits on disk latency. A trickle feed
// still becomes durable moments after the worker goes idle, and control
// ops (flush, checkpoint) remain hard barriers via the synchronous commit.
func (sh *shard) maybeSync() {
	if p := sh.wal.Pending(); p > 0 && (p >= syncEvery || len(sh.ch) == 0) {
		if err := sh.wal.CommitAsync(); err != nil {
			sh.sm.ckptErrors.Inc()
			log.Printf("ingest: shard %d wal commit: %v", sh.id, err)
		}
	}
	sh.sm.walPending.Set(int64(sh.wal.Pending()))
	sh.sm.walSegments.Set(int64(sh.wal.Files()))
}

// pushClean feeds one raw record to the streaming cleaner, ingests the
// survivors and attributes any removals to their §6.1.1 class.
func (sh *shard) pushClean(rec mdt.Record) {
	before := sh.cleaner.Stats()
	for _, r := range sh.cleaner.Push(rec) {
		sh.ingest(r)
	}
	after := sh.cleaner.Stats()
	if d := int64(after.GPSOutliers - before.GPSOutliers); d > 0 {
		sh.sm.rejected.Add(d)
		sh.met.removedGPS.Add(d)
	}
	if d := int64(after.Duplicates - before.Duplicates); d > 0 {
		sh.sm.rejected.Add(d)
		sh.met.removedDup.Add(d)
	}
	if d := int64(after.ImproperStates - before.ImproperStates); d > 0 {
		sh.sm.rejected.Add(d)
		sh.met.removedImproper.Add(d)
	}
}

// ingest feeds one cleaned survivor to the engine.
func (sh *shard) ingest(r mdt.Record) {
	sh.sm.accepted.Inc()
	sh.emit(sh.engine.Ingest(r))
}

// emit forwards slot closings to the aggregator, refreshes the shard's
// finality watermark, and — when this shard's watermark actually moved —
// asks the aggregator to republish the read snapshot. The order matters:
// cells are merged before the watermark rises, and every shard's own
// watermark is set before it reads the cross-shard minimum, so the publish
// that observes the final minimum always sees every contributing cell.
func (sh *shard) emit(events []stream.Event) {
	if len(events) > 0 {
		sh.svc.agg.add(events)
		if lt := sh.svc.live; lt != nil {
			lt.observe(events)
		}
	}
	wm := sh.engine.Closed()
	sh.sm.watermark.Set(int64(wm))
	if wm != sh.lastWM {
		sh.lastWM = wm
		sh.svc.agg.advance(sh.svc.minClosed())
		sh.svc.appendHistory()
		if lt := sh.svc.live; lt != nil {
			// A slot just became untouchable here: the feed clock has
			// reached at least its end, so let discovery expire and decay.
			lt.advance(sh.svc.grid.TimeOf(0, wm))
		}
	}
}

// refreshEngineGauges publishes the engine-introspection gauges and this
// shard's provisional current-slot snapshot; O(spots), so it runs every
// engineGaugeEvery records and after each control op.
func (sh *shard) refreshEngineGauges() {
	sh.sinceStat = 0
	sh.sm.openSlots.Set(int64(sh.engine.OpenSlots()))
	sh.sm.taxis.Set(int64(sh.engine.TrackedTaxis()))
	sh.prov.Store(sh.engine.ExportProvisional())
	sh.svc.estVersion.Add(1)
}

// commit is the synchronous durability barrier: everything logged so far
// is on stable storage when it returns nil. A failure is counted and
// logged; the records stay held by the log and the next commit retries
// them in a new file.
func (sh *shard) commit() error {
	if sh.wal == nil {
		return nil
	}
	err := sh.wal.Commit()
	if err != nil {
		sh.sm.ckptErrors.Inc()
		log.Printf("ingest: shard %d wal commit: %v", sh.id, err)
	}
	sh.sm.walPending.Set(int64(sh.wal.Pending()))
	sh.sm.walSegments.Set(int64(sh.wal.Files()))
	return err
}
