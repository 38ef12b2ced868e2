// Package history is the embedded columnar time-series store for closed
// slot contexts — the analytics backend behind queued's /history, /heatmap
// and /transitions endpoints. The paper labels only the *current* slot;
// once a slot's finality watermark passes, its context existed nowhere but
// a soon-to-be-replaced snapshot. This package makes that context
// permanent and cheap to scan: every final (spot, slot) cell — the §5.2
// 5-tuple features plus the classified queue context — appends in slot
// order into fixed-size columnar blocks, each carrying a summary (slot
// range, per-label counts, feature aggregates) so range queries and
// heatmaps skip blocks without decoding their contents.
//
// Layout. A record is one (day, slot, spot) cell. Cells whose features are
// the zero 5-tuple are never stored: an empty slot's context is a pure
// function of the spot's thresholds, so the read side synthesizes it on
// demand and the encoded size tracks *activity*, not grid area (a few
// bytes per active cell, fractions of a byte amortized per grid cell).
// Within a block the payload is columnar — one delta/varint-packed column
// per field — and float features that are exactly derivable from raw
// counts (N_arr = waitN·Factor, N_dep = depN·Factor, L̄ from t̄wait and
// N_arr) are stored as the counts plus a derivation flag, falling back to
// explicit float64 bits only when the bit-exact reproduction check fails
// at encode time. Decoding is therefore lossless to the bit, which the
// equivalence tests assert field by field against both the live snapshot
// and the batch engine.
//
// Reads are lock-free, matching the repo's RCU serving style: every
// append publishes an immutable index (sealed blocks + the open tail +
// per-day watermarks) behind an atomic pointer; queries load the pointer
// once and walk plain memory. Writers serialize on an internal mutex that
// readers never touch.
//
// Durability is a store.Log, the same checksummed log the ingest WAL uses,
// so the chaos harness's disk faults (short writes, fsync errors, silently
// torn tails) apply unchanged. Every sealed block is one frame, committed
// before the append that sealed it returns; the log's files carry the
// grid/spots/amplification stamp, so a directory written under another
// configuration fails Open. Recovery keeps the longest clean block prefix
// of the newest file, truncates the rest and counts the cut — a partially
// written block is never served — while damage to an older file fails
// Open. The ingest WAL replays the live day through the exact live path on
// restart, and the store's per-day watermark makes re-appends idempotent,
// so a recovered prefix plus a replay converges to the fault-free history.
package history

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"taxiqueue/internal/core"
	"taxiqueue/internal/obs"
	"taxiqueue/internal/store"
)

// ErrClosed is returned by appends after Close.
var ErrClosed = errors.New("history: store closed")

// Record is one decoded (day, slot, spot) cell: the classified context and
// the §5.2 feature 5-tuple behind it.
type Record struct {
	Day   int
	Slot  int
	Spot  int
	Label core.QueueType
	Feats core.SlotFeatures
}

// Config parameterizes a Store.
type Config struct {
	// Grid is the slot partition a day of history is laid out over.
	// Required. Day d, slot j covers the interval starting at
	// Grid.Start + d·(Slots·SlotLen) + j·SlotLen.
	Grid core.SlotGrid
	// Spots are the queue spots cells are recorded for (positions feed the
	// heatmap tiles). Required.
	Spots []core.QueueSpot
	// Thresholds are the per-spot QCD thresholds, indexed like Spots;
	// needed to synthesize the context of empty (unstored) cells exactly.
	Thresholds []core.Thresholds
	// Amplify is the §6.2.1 coverage correction the recorded features were
	// computed under; the count-derivation codec reproduces floats from it.
	Amplify core.Amplification
	// Dir enables durability: sealed blocks append to a store.Log under
	// it. Empty keeps the store memory-only.
	Dir string
	// FS is the filesystem writes go through; store.OS when nil. The
	// chaos harness injects disk faults here. Reads and truncation use the
	// real filesystem, like the WAL.
	FS store.FS
	// EagerOpen decodes every recovered block at Open, restoring the
	// pre-lazy resident behavior (every CRC check still runs either way).
	// Identity tests and the open-cost benchmarks compare against it.
	EagerOpen bool
	// Metrics is the registry the store's collectors live in; a private
	// registry when nil.
	Metrics *obs.Registry

	// blockRecords (512, the records an encoded block seals at) and
	// blockCacheBlocks (64, the decoded-block LRU's bound after a lazy
	// Open): only tests set them, to reach their cases quickly.
	blockRecords     int
	blockCacheBlocks int
}

func (c Config) withDefaults() Config {
	if c.blockRecords == 0 {
		c.blockRecords = 512
	}
	if c.Amplify.Factor == 0 {
		c.Amplify = core.NoAmplification
	}
	if c.blockCacheBlocks == 0 {
		c.blockCacheBlocks = 64
	}
	if c.FS == nil {
		c.FS = store.OS
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return c
}

// index is one immutable published read view: sealed blocks, the open
// (not yet sealed) tail, and the per-day appended-below watermarks.
// Queries load it with a single atomic pointer read and never see a
// half-applied append.
type index struct {
	blocks  []*block
	pending []Record
	// wm[day] is the appended-below slot watermark: every slot of the day
	// strictly below it is fully recorded (stored or provably empty).
	wm map[int]int
}

// days returns the recorded day indexes in ascending order.
func (ix *index) days() []int {
	out := make([]int, 0, len(ix.wm))
	for d := range ix.wm {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// Store is the embedded history store. Appends are safe for concurrent
// use (serialized internally); reads are lock-free against the published
// index.
type Store struct {
	cfg     Config
	slotSec float64
	met     *metrics

	pub atomic.Pointer[index]

	// cache fronts disk-resident (lazily recovered) blocks with decoded
	// records; see lazy.go.
	cache *blockCache

	mu      sync.Mutex
	blocks  []*block
	pending []Record
	wm      map[int]int
	// persistedWM mirrors wm but only advances when a block carrying the
	// watermark is sealed, so Flush knows whether a day still owes a bare
	// watermark block (an empty tail of slots that produced no records).
	persistedWM map[int]int
	closed      bool

	// log holds one frame per sealed block; nil when cfg.Dir is empty.
	log *store.Log
}

// Open builds a store from cfg, recovering the log under cfg.Dir
// (tolerantly for the newest file: a torn or corrupt tail keeps the
// longest clean block prefix and counts the truncation).
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if cfg.Grid.Slots == 0 {
		return nil, errors.New("history: Grid must be set")
	}
	if len(cfg.Thresholds) != len(cfg.Spots) {
		return nil, fmt.Errorf("history: %d spots but %d thresholds", len(cfg.Spots), len(cfg.Thresholds))
	}
	s := &Store{
		cfg:         cfg,
		slotSec:     cfg.Grid.SlotLen.Seconds(),
		met:         newMetrics(cfg.Metrics),
		wm:          make(map[int]int),
		persistedWM: make(map[int]int),
	}
	s.cache = newBlockCache(cfg.blockCacheBlocks, s.met)
	if cfg.Dir != "" {
		// Recovery is lazy: only each frame's summary prefix is decoded;
		// the columns stay on disk behind the log ref and materialize on
		// first use (see lazy.go), so open-time memory tracks the block
		// count, not the record count.
		log, rec, err := store.OpenLog(cfg.Dir, s.stamp(), store.LogConfig{FS: cfg.FS}, func(ref store.Ref, p []byte) error {
			b, err := parseSummaryBlock(p)
			if err != nil {
				return err
			}
			b.ref = &ref
			s.blocks = append(s.blocks, b)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("history: %w", err)
		}
		s.log = log
		s.met.bytes.Set(log.Size())
		if rec.Truncated() {
			s.met.truncations.Inc()
		}
		if cfg.EagerOpen {
			// Decode every recovered block up front and pin the records in
			// the block itself, bypassing the cache.
			for _, b := range s.blocks {
				if b.sum.Count > 0 && b.recs == nil {
					b.recs = s.materialize(b)
				}
			}
		}
	}
	for _, b := range s.blocks {
		s.met.blocks.Inc()
		s.met.records.Add(int64(b.sum.Count))
		if b.coveredBelow > s.wm[b.day] {
			s.wm[b.day] = b.coveredBelow
		}
	}
	for d, w := range s.wm {
		s.persistedWM[d] = w
	}
	s.publishLocked()
	return s, nil
}

// stamp identifies the configuration the log's frames are encoded under:
// a store may only recover files written under its exact grid, spot count
// and amplification.
func (s *Store) stamp() []byte {
	buf := binary.AppendUvarint(nil, uint64(s.cfg.Grid.Slots))
	buf = binary.AppendUvarint(buf, uint64(s.cfg.Grid.SlotLen))
	buf = binary.AppendUvarint(buf, uint64(len(s.cfg.Spots)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.cfg.Grid.Start.UnixNano()))
	buf = appendF64(buf, s.cfg.Amplify.Factor)
	return appendF64(buf, s.cfg.Amplify.IntervalFactor)
}

// emptyContext returns spot's synthesized no-activity cell: the zero
// feature 5-tuple and the label ClassifyCell assigns it under the spot's
// thresholds — identical to what the batch engine and the live aggregator
// produce for a slot nobody fed.
func (s *Store) emptyContext(spot int) (core.SlotFeatures, core.QueueType) {
	return core.SlotFeatures{}, core.ClassifyCell(core.SlotFeatures{}, s.cfg.Thresholds[spot])
}

// Grid returns the store's slot grid.
func (s *Store) Grid() core.SlotGrid { return s.cfg.Grid }

// Spots returns how many queue spots the store records.
func (s *Store) Spots() int { return len(s.cfg.Spots) }

// TimeOf returns the start instant of (day, slot): Grid().TimeOf.
func (s *Store) TimeOf(day, slot int) time.Time { return s.cfg.Grid.TimeOf(day, slot) }

// Watermark returns day's appended-below slot: every slot strictly below
// it is recorded (0 when the day is absent).
func (s *Store) Watermark(day int) int { return s.pub.Load().wm[day] }

// Days returns the recorded day indexes in ascending order.
func (s *Store) Days() []int { return s.pub.Load().days() }

// AppendSlots records every cell of slots [lo, hi) of one day, reading
// each (spot, slot) context from at. Slots already appended (below the
// day's watermark) are skipped, so racing appenders and WAL replays are
// exactly idempotent; cells whose features are the zero 5-tuple are
// elided (the read side synthesizes them). The new cells join the open
// tail, which seals into encoded blocks of 512 records and
// commits them to the log when the store has a directory.
func (s *Store) AppendSlots(day, lo, hi int, at func(spot, slot int) (core.SlotFeatures, core.QueueType)) error {
	if hi > s.cfg.Grid.Slots {
		hi = s.cfg.Grid.Slots
	}
	if lo < 0 {
		lo = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if w := s.wm[day]; w > lo {
		lo = w
	}
	if lo >= hi {
		return nil
	}
	appended := 0
	for slot := lo; slot < hi; slot++ {
		for spot := range s.cfg.Spots {
			f, l := at(spot, slot)
			if f == (core.SlotFeatures{}) {
				continue // synthesized at read time; see emptyContext
			}
			s.pending = append(s.pending, Record{Day: day, Slot: slot, Spot: spot, Label: l, Feats: f})
			appended++
		}
	}
	s.wm[day] = hi
	s.met.appends.Inc()
	s.met.records.Add(int64(appended))
	s.sealFullLocked()
	s.publishLocked()
	return nil
}

// pendingRunLocked returns how many leading pending records share the
// first record's day — the largest run a single block may take, since a
// block never spans days.
func (s *Store) pendingRunLocked() int {
	day := s.pending[0].Day
	for i := range s.pending {
		if s.pending[i].Day != day {
			return i
		}
	}
	return len(s.pending)
}

// coveredLocked computes the coveredBelow claim for sealing
// s.pending[:cut] of day: the first later pending record of the same day
// bounds it (that slot is not yet fully sealed); otherwise the day's
// watermark is exact.
func (s *Store) coveredLocked(day, cut int) int {
	for _, r := range s.pending[cut:] {
		if r.Day == day {
			return r.Slot
		}
	}
	return s.wm[day]
}

// sealFullLocked cuts full-sized blocks off the open tail and
// commits them. A commit failure is counted, not returned: a failing
// history disk must not stall its feeder, and the log rewrites the blocks
// at the next commit.
func (s *Store) sealFullLocked() {
	sealed := false
	for len(s.pending) > 0 {
		run := s.pendingRunLocked()
		if run < s.cfg.blockRecords {
			break
		}
		cut := s.cfg.blockRecords
		day := s.pending[0].Day
		s.sealLocked(day, s.pending[:cut], s.coveredLocked(day, cut))
		s.pending = append(s.pending[:0:0], s.pending[cut:]...)
		sealed = true
	}
	if sealed {
		s.commitLocked()
	}
}

// sealLocked encodes one block (possibly empty: a bare watermark carrier)
// and appends it to the store and, when durable, to the log.
func (s *Store) sealLocked(day int, recs []Record, coveredBelow int) {
	b, payload := encodeBlock(day, recs, coveredBelow, s.cfg.Amplify, s.slotSec)
	s.blocks = append(s.blocks, b)
	s.met.blocks.Inc()
	if coveredBelow > s.persistedWM[day] {
		s.persistedWM[day] = coveredBelow
	}
	if s.log != nil {
		s.log.Append(payload)
	}
}

// commitLocked makes every sealed block durable. A failure is counted; the
// log holds the blocks and the next commit rewrites them into a new file.
func (s *Store) commitLocked() error {
	if s.log == nil {
		return nil
	}
	err := s.log.Commit()
	if err != nil {
		s.met.writeErrs.Inc()
	}
	s.met.bytes.Set(s.log.Size())
	return err
}

// Flush seals the open tail (whatever its size), persists any watermark
// advance that produced no records as a bare watermark block, and commits
// the log — the durability barrier the ingest service invokes at end of
// feed. A non-nil error means sealed blocks are not yet durable; the next
// Flush retries them. Callers without a Dir get the seal (and the
// published blocks) only.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.sealTailLocked()
	s.publishLocked()
	return s.commitLocked()
}

// sealTailLocked seals everything pending plus owed watermark blocks.
func (s *Store) sealTailLocked() {
	for len(s.pending) > 0 {
		run := s.pendingRunLocked()
		day := s.pending[0].Day
		s.sealLocked(day, s.pending[:run], s.coveredLocked(day, run))
		s.pending = append(s.pending[:0:0], s.pending[run:]...)
	}
	// A day whose newest appended slots were all empty produced no
	// records; a bare watermark block makes the "fully recorded below"
	// claim durable so a restart serves those slots as final empties.
	days := make([]int, 0, len(s.wm))
	for day := range s.wm {
		days = append(days, day)
	}
	sort.Ints(days)
	for _, day := range days {
		if w := s.wm[day]; w > s.persistedWM[day] {
			s.sealLocked(day, nil, w)
		}
	}
}

// publishLocked swaps in a fresh immutable index.
func (s *Store) publishLocked() {
	wm := make(map[int]int, len(s.wm))
	for d, w := range s.wm {
		wm[d] = w
	}
	s.pub.Store(&index{
		blocks:  s.blocks[:len(s.blocks):len(s.blocks)],
		pending: append([]Record(nil), s.pending...),
		wm:      wm,
	})
}

// Close flushes, commits and closes the log, returning the commit error:
// blocks it reports are not durable. Further appends return ErrClosed;
// reads keep serving the final published index.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.sealTailLocked()
	s.publishLocked()
	s.closed = true
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	if err != nil {
		s.met.writeErrs.Inc()
	}
	s.met.bytes.Set(s.log.Size())
	return err
}

// Stats is the store's counter snapshot; every field reads the same
// registry collector /metrics renders, so the two views cannot disagree.
type Stats struct {
	Appends     int64 `json:"appends"`      // AppendSlots/Append calls applied
	Records     int64 `json:"records"`      // non-empty cells recorded
	Blocks      int64 `json:"blocks"`       // sealed encoded blocks
	Bytes       int64 `json:"bytes"`        // log bytes on disk (file headers + frames)
	Truncations int64 `json:"truncations"`  // recoveries that cut a damaged tail
	WriteErrors int64 `json:"write_errors"` // failed log commits (rewritten at the next)

	SummaryHits         int64 `json:"summary_hits"`          // range blocks served summary-only
	SummaryMisses       int64 `json:"summary_misses"`        // range blocks that had to decode
	BlockCacheHits      int64 `json:"block_cache_hits"`      // decoded-block cache hits
	BlockCacheEvictions int64 `json:"block_cache_evictions"` // decoded-block cache evictions
}

// Stats snapshots the collectors.
func (s *Store) Stats() Stats {
	return Stats{
		Appends:             s.met.appends.Value(),
		Records:             s.met.records.Value(),
		Blocks:              s.met.blocks.Value(),
		Bytes:               s.met.bytes.Value(),
		Truncations:         s.met.truncations.Value(),
		WriteErrors:         s.met.writeErrs.Value(),
		SummaryHits:         s.met.summaryHits.Value(),
		SummaryMisses:       s.met.summaryMisses.Value(),
		BlockCacheHits:      s.met.cacheHits.Value(),
		BlockCacheEvictions: s.met.cacheEvictions.Value(),
	}
}
