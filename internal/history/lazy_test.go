package history

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"taxiqueue/internal/chaos"
	"taxiqueue/internal/core"
)

// sameRange compares two RangeSummary values bit-exactly: integer fields
// with ==, float sums by their IEEE-754 bits (so a +0/−0 or rounding
// discrepancy between the summary and decode paths cannot hide).
func sameRange(a, b RangeSummary) bool {
	return a.From.Equal(b.From) && a.To.Equal(b.To) &&
		a.Days == b.Days && a.Slots == b.Slots && a.Cells == b.Cells &&
		a.Stored == b.Stored && a.Empty == b.Empty && a.Labels == b.Labels &&
		math.Float64bits(a.WaitSum) == math.Float64bits(b.WaitSum) &&
		math.Float64bits(a.ArrSum) == math.Float64bits(b.ArrSum) &&
		math.Float64bits(a.QLenSum) == math.Float64bits(b.QLenSum) &&
		math.Float64bits(a.DepSum) == math.Float64bits(b.DepSum)
}

// assertRangeIdentity throws randomized ranges at one store and asserts
// the summary-served aggregate is bit-identical to the decode-everything
// baseline — including inverted ranges, sub-slot offsets, ranges starting
// before the grid and ranges reaching far past the newest record.
func assertRangeIdentity(t *testing.T, s *Store, seed int64, trials int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	span := int64(6 * 24 * time.Hour)
	for i := 0; i < trials; i++ {
		from := s.Grid().Start.Add(time.Duration(rng.Int63n(2*span) - span/2))
		to := s.Grid().Start.Add(time.Duration(rng.Int63n(2*span) - span/2))
		if rng.Intn(8) == 0 {
			to = from.Add(time.Duration(rng.Int63n(int64(3 * time.Hour))))
		}
		fast, okF := s.rangeSummary(from, to, false)
		slow, okS := s.rangeSummary(from, to, true)
		if okF != okS {
			t.Fatalf("trial %d [%v, %v): fast ok=%v, decode ok=%v", i, from, to, okF, okS)
		}
		if !sameRange(fast, slow) {
			t.Fatalf("trial %d [%v, %v):\n  fast   %+v\n  decode %+v", i, from, to, fast, slow)
		}
	}
}

// TestRangeSummaryMatchesDecode is the bit-identity property test for the
// summary fast path: randomized ranges over a store holding partial
// blocks, bare watermark-only (all-empty) blocks, pending unflushed
// records, and — after a reopen — lazily materialized blocks.
func TestRangeSummaryMatchesDecode(t *testing.T) {
	cfg := testConfig(6)
	cfg.Dir = t.TempDir()
	cfg.blockRecords = 24 // many blocks per day → plenty of partial overlaps
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	days := make([]map[[2]int]Record, 3)
	for d := range days {
		days[d] = fillDay(t, s, d, int64(500+d))
	}
	// Day 3: watermark-only (every appended slot empty).
	if err := s.AppendSlots(3, 0, 20, func(int, int) (core.SlotFeatures, core.QueueType) {
		return core.SlotFeatures{}, core.Unidentified
	}); err != nil {
		t.Fatal(err)
	}
	assertRangeIdentity(t, s, 1, 300)

	// Deterministic spot check: a full-day range must account for exactly
	// the cells fillDay planted.
	got, ok := s.RangeSummary(s.TimeOf(1, 0), s.TimeOf(2, 0))
	if !ok || got.Stored != len(days[1]) {
		t.Fatalf("day-1 range stored %d cells (ok=%v), want %d", got.Stored, ok, len(days[1]))
	}
	if got.Cells != s.Grid().Slots*s.Spots() || got.Empty != got.Cells-got.Stored {
		t.Fatalf("day-1 range cell accounting: %+v", got)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Unflushed pending records on top of the lazy blocks.
	fresh := 0
	if err := r.AppendSlots(4, 0, 10, func(spot, slot int) (core.SlotFeatures, core.QueueType) {
		if (spot+slot)%3 != 0 {
			return core.SlotFeatures{}, core.Unidentified
		}
		fresh++
		return core.SlotFeatures{TWait: time.Minute, NArr: 2, QLen: 1.5, NDep: 1}, core.C1
	}); err != nil {
		t.Fatal(err)
	}
	if fresh == 0 {
		t.Fatal("no pending records planted")
	}
	assertRangeIdentity(t, r, 2, 300)

	st := r.Stats()
	if st.SummaryHits == 0 || st.SummaryMisses == 0 {
		t.Fatalf("property test did not exercise both paths: %+v", st)
	}
}

// TestLazyOpenMatchesEager opens the same durable directory lazily and
// eagerly and asserts every query answers identically — and that the lazy
// store really is disk-resident at open (summaries in memory, records
// behind file refs).
func TestLazyOpenMatchesEager(t *testing.T) {
	cfg := testConfig(5)
	cfg.Dir = t.TempDir()
	cfg.blockRecords = 32
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 3; d++ {
		fillDay(t, s, d, int64(900+d))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	lazy, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer lazy.Close()
	eagerCfg := cfg
	eagerCfg.EagerOpen = true
	eager, err := Open(eagerCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eager.Close()

	resident := 0
	for _, b := range lazy.pub.Load().blocks {
		if b.recs != nil {
			resident++
		} else if b.sum.Count > 0 && b.ref == nil {
			t.Fatal("disk-resident block with no file ref")
		}
	}
	if resident != 0 {
		t.Fatalf("lazy open left %d blocks resident", resident)
	}
	for _, b := range eager.pub.Load().blocks {
		if b.sum.Count > 0 && b.recs == nil {
			t.Fatal("eager open left a block unmaterialized")
		}
	}

	from, to := cfg.Grid.Start, cfg.Grid.Start.Add(4*24*time.Hour)
	for spot := 0; spot < lazy.Spots(); spot++ {
		lp, ep := lazy.Series(spot, from, to), eager.Series(spot, from, to)
		if len(lp) != len(ep) {
			t.Fatalf("spot %d: lazy %d points, eager %d", spot, len(lp), len(ep))
		}
		for i := range lp {
			if lp[i] != ep[i] {
				t.Fatalf("spot %d point %d: lazy %+v, eager %+v", spot, i, lp[i], ep[i])
			}
		}
		lm, em := lazy.Transitions(spot), eager.Transitions(spot)
		if lm != em {
			t.Fatalf("spot %d transitions: lazy %+v, eager %+v", spot, lm, em)
		}
	}
	for _, at := range []time.Time{lazy.TimeOf(0, 5), lazy.TimeOf(1, 30), lazy.TimeOf(2, 47)} {
		lh, lok := lazy.Heatmap(at)
		eh, eok := eager.Heatmap(at)
		if lok != eok || len(lh.Tiles) != len(eh.Tiles) {
			t.Fatalf("heatmap at %v: lazy ok=%v %d tiles, eager ok=%v %d tiles",
				at, lok, len(lh.Tiles), eok, len(eh.Tiles))
		}
		for i := range lh.Tiles {
			if lh.Tiles[i] != eh.Tiles[i] {
				t.Fatalf("heatmap tile %d: lazy %+v, eager %+v", i, lh.Tiles[i], eh.Tiles[i])
			}
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		f := cfg.Grid.Start.Add(time.Duration(rng.Int63n(int64(4 * 24 * time.Hour))))
		u := f.Add(time.Duration(rng.Int63n(int64(48 * time.Hour))))
		ls, lok := lazy.RangeSummary(f, u)
		es, eok := eager.RangeSummary(f, u)
		if lok != eok || !sameRange(ls, es) {
			t.Fatalf("range [%v, %v): lazy %+v (ok=%v), eager %+v (ok=%v)", f, u, ls, lok, es, eok)
		}
	}
}

// TestBlockCacheEviction pins the decoded-block LRU at one block and
// scans across many: evictions must occur, repeated hits on one block
// must be served from cache, and answers stay correct throughout.
func TestBlockCacheEviction(t *testing.T) {
	cfg := testConfig(5)
	cfg.Dir = t.TempDir()
	cfg.blockRecords = 24
	cfg.blockCacheBlocks = 1
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cells := fillDay(t, s, 0, 77)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	verifyDay(t, r, 0, cells) // full scan across every block, cap 1
	if st := r.Stats(); st.BlockCacheEvictions == 0 {
		t.Fatalf("no evictions with a 1-block cache over %d blocks", st.Blocks)
	}
	// Hammer one narrow window: after the first materialization the single
	// cached block must serve the rest.
	before := r.Stats().BlockCacheHits
	for i := 0; i < 5; i++ {
		r.Series(0, r.TimeOf(0, 0), r.TimeOf(0, 1))
	}
	if after := r.Stats().BlockCacheHits; after == before {
		t.Fatal("repeated narrow scans never hit the block cache")
	}
	verifyDay(t, r, 0, cells)
}

// TestRotateWithLazyBlocks forces write errors on a reopened store: the log
// abandons its failed files and rewrites only the blocks that are not yet
// durable into a new one, the disk-resident blocks keep their refs (which
// never move), and every read stays exact before, during and after —
// including across one more reopen.
func TestRotateWithLazyBlocks(t *testing.T) {
	faults := chaos.New(chaos.Config{Seed: 13, SyncErrProb: 1})
	faults.SetEnabled(false)
	cfg := testConfig(6)
	cfg.Dir = t.TempDir()
	cfg.blockRecords = 24
	cfg.FS = faults.FS(nil)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	day0 := fillDay(t, s, 0, 4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(cfg) // day 0 now lazy
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	faults.SetEnabled(true) // every sync fails → the log owes a rewrite
	day1 := fillDay(t, r, 1, 5)
	_ = r.Flush()
	if r.Stats().WriteErrors == 0 {
		t.Fatal("no write errors under a 100% sync-fault disk")
	}
	faults.SetEnabled(false)
	if err := r.Flush(); err != nil { // heals: the rewrite lands in a new file
		t.Fatal(err)
	}
	verifyDay(t, r, 0, day0) // refs still point at the first file
	verifyDay(t, r, 1, day1)

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if st := r2.Stats(); st.Truncations != 0 {
		t.Fatalf("rotated image reopened with %d truncations", st.Truncations)
	}
	verifyDay(t, r2, 0, day0)
	verifyDay(t, r2, 1, day1)
}
