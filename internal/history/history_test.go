package history

import (
	"math"
	"math/rand"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/core"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/obs"
)

// testConfig builds a small store config: a 48-slot grid, nspots spots
// scattered around the island, paper amplification.
func testConfig(nspots int) Config {
	start := time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)
	spots := make([]core.QueueSpot, nspots)
	ths := make([]core.Thresholds, nspots)
	for i := range spots {
		spots[i] = core.QueueSpot{
			Pos:  geo.Point{Lat: 1.28 + 0.01*float64(i%7), Lon: 103.8 + 0.008*float64(i/7)},
			Zone: citymap.Central,
		}
		ths[i] = core.Thresholds{
			EtaWait: 5 * time.Minute, EtaDep: time.Minute,
			TauArr: 6, TauDep: 30, EtaDur: 27 * time.Minute, TauRatio: 0.5,
		}
	}
	return Config{
		Grid:       core.DaySlots(start),
		Spots:      spots,
		Thresholds: ths,
		Amplify:    core.PaperAmplification,
	}
}

// randFeats draws one plausible non-zero cell. Most draws exercise the
// count-derivation + formula-replay fast paths (stream- or batch-shaped
// QLen from derivable counts); a minority are adversarial floats that
// must fall back to explicit encoding.
func randFeats(rng *rand.Rand, amp core.Amplification, slotSec float64) (core.SlotFeatures, core.QueueType) {
	var f core.SlotFeatures
	switch rng.Intn(10) {
	case 0: // adversarial: nothing derivable
		f.TWait = time.Duration(rng.Int63n(int64(20 * time.Minute)))
		f.NArr = rng.Float64() * 50
		f.NDep = rng.Float64() * 80
		f.QLen = rng.Float64() * 10
		f.TDep = time.Duration(rng.Int63n(int64(3 * time.Minute)))
		f.StreetDepartures = rng.Intn(40)
		f.BookingDepartures = rng.Intn(40)
	default: // shaped like the live/batch pipelines produce
		waitN := 1 + rng.Intn(60)
		depN := rng.Intn(90)
		street := 0
		if depN > 0 {
			street = rng.Intn(depN + 1)
		}
		f.TWait = time.Duration(rng.Int63n(int64(20*time.Minute)) + 1)
		f.NArr = float64(waitN) * amp.Factor
		f.NDep = float64(depN) * amp.Factor
		if rng.Intn(2) == 0 {
			f.QLen = f.TWait.Seconds() * f.NArr / slotSec // stream shape
		} else {
			lambda := f.NArr / slotSec
			f.QLen = f.TWait.Seconds() * lambda // batch shape
		}
		if depN > 0 {
			f.TDep = time.Duration(float64(rng.Int63n(int64(2*time.Minute))+1) * amp.IntervalFactor)
		}
		f.StreetDepartures = street
		f.BookingDepartures = depN - street
	}
	return f, core.QueueType(rng.Intn(int(core.C4) + 1))
}

// fillDay appends a full day of randomized cells (sparse: ~40% of cells
// active) through AppendSlots, mimicking watermark-advance batches.
func fillDay(t *testing.T, s *Store, day int, seed int64) map[[2]int]Record {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	grid := s.Grid()
	cells := make(map[[2]int]Record)
	at := func(spot, slot int) (core.SlotFeatures, core.QueueType) {
		r, ok := cells[[2]int{spot, slot}]
		if !ok {
			return core.SlotFeatures{}, core.Unidentified
		}
		return r.Feats, r.Label
	}
	for slot := 0; slot < grid.Slots; slot++ {
		for spot := 0; spot < s.Spots(); spot++ {
			if rng.Float64() < 0.4 {
				f, l := randFeats(rng, s.cfg.Amplify, grid.SlotLen.Seconds())
				cells[[2]int{spot, slot}] = Record{Day: day, Slot: slot, Spot: spot, Label: l, Feats: f}
			}
		}
	}
	// Deliver in uneven watermark advances, with overlapping re-appends to
	// prove idempotence.
	lo := 0
	for lo < grid.Slots {
		hi := lo + 1 + rng.Intn(7)
		if hi > grid.Slots {
			hi = grid.Slots
		}
		if err := s.AppendSlots(day, 0, hi, at); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendSlots(day, lo, hi, at); err != nil { // duplicate
			t.Fatal(err)
		}
		lo = hi
	}
	return cells
}

// verifyDay asserts the decoded series matches cells byte-for-field.
func verifyDay(t *testing.T, s *Store, day int, cells map[[2]int]Record) {
	t.Helper()
	grid := s.Grid()
	from := s.TimeOf(day, 0)
	to := from.Add(s.Grid().DayLen())
	for spot := 0; spot < s.Spots(); spot++ {
		pts := s.Series(spot, from, to)
		if len(pts) != grid.Slots {
			t.Fatalf("spot %d: %d points, want %d", spot, len(pts), grid.Slots)
		}
		for j, p := range pts {
			if p.Slot != j || p.Day != day {
				t.Fatalf("spot %d point %d at (day %d, slot %d)", spot, j, p.Day, p.Slot)
			}
			want, active := cells[[2]int{spot, j}]
			if active {
				if p.Empty {
					t.Fatalf("spot %d slot %d served empty, want stored cell", spot, j)
				}
				if p.Label != want.Label || p.Feats != want.Feats {
					t.Fatalf("spot %d slot %d decoded\n  %v %+v\nwant\n  %v %+v",
						spot, j, p.Label, p.Feats, want.Label, want.Feats)
				}
			} else {
				if !p.Empty {
					t.Fatalf("spot %d slot %d served a cell, want empty", spot, j)
				}
				ef, el := s.emptyContext(spot)
				if p.Feats != ef || p.Label != el {
					t.Fatalf("spot %d slot %d empty context %v %+v, want %v %+v",
						spot, j, p.Label, p.Feats, el, ef)
				}
			}
		}
	}
}

// TestSeriesFarFutureClamp is the regression test for the unbounded day
// scan: Series used to iterate every day in [from, to] even when `to`
// lay centuries past the newest record, walking ~350M empty days per
// request. The scan must clamp at the newest recorded day — O(data),
// not O(requested range) — and still return exactly the stored points.
func TestSeriesFarFutureClamp(t *testing.T) {
	s, err := Open(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	cells := fillDay(t, s, 0, 17)
	grid := s.Grid()
	far := time.Date(2999, 1, 1, 0, 0, 0, 0, time.UTC)

	// An unclamped scan walks every empty day up to `far` (capped only by
	// Duration saturation at ~106K days) on EVERY query — ~1 ms each vs
	// microseconds clamped. 1000 queries separate the two by ~60×.
	start := time.Now()
	var pts []Point
	for i := 0; i < 1000; i++ {
		pts = s.Series(1, grid.Start, far)
	}
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Fatalf("1000 far-future Series calls took %v — day scan is not clamped", elapsed)
	}
	if len(pts) != grid.Slots {
		t.Fatalf("%d points, want the recorded day's %d", len(pts), grid.Slots)
	}
	for j, p := range pts {
		if p.Day != 0 || p.Slot != j {
			t.Fatalf("point %d at (day %d, slot %d)", j, p.Day, p.Slot)
		}
		if want, active := cells[[2]int{1, j}]; active && (p.Label != want.Label || p.Feats != want.Feats) {
			t.Fatalf("slot %d decoded %v %+v, want %v %+v", j, p.Label, p.Feats, want.Label, want.Feats)
		}
	}

	// An empty store short-circuits entirely.
	empty, err := Open(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	if pts := empty.Series(0, grid.Start, far); pts != nil {
		t.Fatalf("empty store returned %d points", len(pts))
	}
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Fatalf("empty-store far-future Series took %v", elapsed)
	}
}

// TestEncodeRoundtrip seals randomized blocks and asserts decodeBlock
// reproduces every record and summary field exactly.
func TestEncodeRoundtrip(t *testing.T) {
	cfg := testConfig(5).withDefaults()
	slotSec := cfg.Grid.SlotLen.Seconds()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(600)
		recs := make([]Record, n)
		for i := range recs {
			f, l := randFeats(rng, cfg.Amplify, slotSec)
			recs[i] = Record{
				Day: rng.Intn(3), Slot: rng.Intn(cfg.Grid.Slots),
				Spot: rng.Intn(len(cfg.Spots)), Label: l, Feats: f,
			}
			recs[i].Day = 1 // blocks never span days
		}
		b, payload := encodeBlock(1, recs, 48, cfg.Amplify, slotSec)
		got, err := decodeBlock(payload, cfg.Amplify, slotSec)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if got.day != 1 || got.coveredBelow != 48 || got.sum != b.sum {
			t.Fatalf("trial %d: header/summary mismatch: %+v vs %+v", trial, got.sum, b.sum)
		}
		if len(got.recs) != len(b.recs) {
			t.Fatalf("trial %d: %d records, want %d", trial, len(got.recs), len(b.recs))
		}
		for i := range got.recs {
			if got.recs[i] != b.recs[i] {
				t.Fatalf("trial %d record %d:\n  %+v\nwant\n  %+v", trial, i, got.recs[i], b.recs[i])
			}
		}
	}
}

// TestEncodeSize asserts the headline compactness claim on
// pipeline-shaped data: ≤ 16 bytes per (slot, spot) grid cell for a
// realistic sparse day, counting empty cells as stored-for-free. The
// measure is the log on disk: every CRC-framed block plus the file header.
func TestEncodeSize(t *testing.T) {
	cfg := testConfig(20)
	cfg.Dir = t.TempDir()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillDay(t, s, 0, 7)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	total := int(s.Stats().Bytes)
	cells := s.Grid().Slots * s.Spots()
	perCell := float64(total) / float64(cells)
	t.Logf("encoded %d bytes for %d grid cells = %.2f bytes/slot/spot", total, cells, perCell)
	if perCell > 16 {
		t.Fatalf("%.2f bytes/slot/spot exceeds the 16-byte budget", perCell)
	}
}

// TestAppendIdempotent re-appends every batch and a full-day replay; the
// store must record each cell exactly once.
func TestAppendIdempotent(t *testing.T) {
	s, err := Open(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	cells := fillDay(t, s, 0, 21)
	// Blind full-day replay (what a WAL restart does).
	at := func(spot, slot int) (core.SlotFeatures, core.QueueType) {
		if r, ok := cells[[2]int{spot, slot}]; ok {
			return r.Feats, r.Label
		}
		return core.SlotFeatures{}, core.Unidentified
	}
	if err := s.AppendSlots(0, 0, s.Grid().Slots, at); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := int(s.Stats().Records), len(cells); got != want {
		t.Fatalf("recorded %d cells, want %d", got, want)
	}
	verifyDay(t, s, 0, cells)
}

// TestReopenIdentity writes a multi-day durable store, reopens it, and
// asserts the recovered series and watermarks are identical.
func TestReopenIdentity(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(6)
	cfg.Dir = dir
	cfg.blockRecords = 64 // force several blocks + a partial tail
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	days := make([]map[[2]int]Record, 3)
	for d := range days {
		days[d] = fillDay(t, s, d, int64(100+d))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); st.Truncations != 0 {
		t.Fatalf("clean reopen counted %d truncations", st.Truncations)
	}
	for d := range days {
		if w := r.Watermark(d); w != r.Grid().Slots {
			t.Fatalf("day %d watermark %d after reopen", d, w)
		}
		verifyDay(t, r, d, days[d])
	}
	// Replaying a recorded day into the reopened store is a no-op.
	before := r.Stats().Records
	if err := r.AppendSlots(1, 0, r.Grid().Slots, func(spot, slot int) (core.SlotFeatures, core.QueueType) {
		t.Fatalf("append callback ran for an already-recorded slot (%d, %d)", spot, slot)
		return core.SlotFeatures{}, core.Unidentified
	}); err != nil {
		t.Fatal(err)
	}
	if after := r.Stats().Records; after != before {
		t.Fatalf("replay recorded %d new cells", after-before)
	}
}

// TestBareWatermarkDurable flushes a day whose appended slots were all
// empty; a reopen must still know those slots are final (served as empty,
// not missing).
func TestBareWatermarkDurable(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(3)
	cfg.Dir = dir
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	empty := func(int, int) (core.SlotFeatures, core.QueueType) {
		return core.SlotFeatures{}, core.Unidentified
	}
	if err := s.AppendSlots(0, 0, 10, empty); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if w := r.Watermark(0); w != 10 {
		t.Fatalf("watermark %d after reopen, want 10", w)
	}
	pts := r.Series(0, r.TimeOf(0, 0), r.TimeOf(0, 10))
	if len(pts) != 10 {
		t.Fatalf("%d points, want 10", len(pts))
	}
	for _, p := range pts {
		if !p.Empty {
			t.Fatalf("slot %d not served as empty", p.Slot)
		}
	}
}

// TestHeatmap checks tiling: spots in the same 400 m square aggregate
// into one tile, label counts and sums add up, tiles come out sorted.
func TestHeatmap(t *testing.T) {
	cfg := testConfig(8)
	// Cluster spots 0..3 at one location, 4..7 spread out.
	for i := 0; i < 4; i++ {
		cfg.Spots[i].Pos = geo.Point{Lat: 1.3001, Lon: 103.8001}
	}
	for i := 4; i < 8; i++ {
		cfg.Spots[i].Pos = geo.Point{Lat: 1.35 + 0.02*float64(i), Lon: 103.9}
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cells := fillDay(t, s, 0, 5)
	hm, ok := s.Heatmap(s.TimeOf(0, 17))
	if !ok {
		t.Fatal("heatmap not served for a final slot")
	}
	if hm.Day != 0 || hm.Slot != 17 {
		t.Fatalf("heatmap at (day %d, slot %d)", hm.Day, hm.Slot)
	}
	totalSpots, qlen := 0, 0.0
	for i, tile := range hm.Tiles {
		totalSpots += tile.Spots
		qlen += tile.QLen
		if i > 0 {
			prev := hm.Tiles[i-1]
			if tile.Lat < prev.Lat || (tile.Lat == prev.Lat && tile.Lon <= prev.Lon) {
				t.Fatalf("tiles not sorted: %v after %v", tile, prev)
			}
		}
	}
	if totalSpots != s.Spots() {
		t.Fatalf("tiles cover %d spots, want %d", totalSpots, s.Spots())
	}
	wantQ := 0.0
	for spot := 0; spot < s.Spots(); spot++ {
		if r, ok := cells[[2]int{spot, 17}]; ok {
			wantQ += r.Feats.QLen
		}
	}
	if math.Abs(qlen-wantQ) > 1e-9 {
		t.Fatalf("tile QLen sum %.6f, want %.6f", qlen, wantQ)
	}
	if _, ok := s.Heatmap(s.TimeOf(1, 0)); ok {
		t.Fatal("heatmap served for an unrecorded slot")
	}
	// The clustered spots share one tile.
	for _, tile := range hm.Tiles {
		if tile.Spots >= 4 {
			return
		}
	}
	t.Fatal("no tile aggregates the 4 co-located spots")
}

// TestTransitions builds two days with a known label flip and checks the
// matrix counts it.
func TestTransitions(t *testing.T) {
	s, err := Open(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	slotSec := s.Grid().SlotLen.Seconds()
	amp := s.cfg.Amplify
	mk := func(label core.QueueType) (core.SlotFeatures, core.QueueType) {
		var f core.SlotFeatures
		f.TWait = 4 * time.Minute
		f.NArr = 10 * amp.Factor
		f.QLen = f.TWait.Seconds() * f.NArr / slotSec
		return f, label
	}
	// Day 0: C1 everywhere. Day 1: C2 in slot 0, empty elsewhere.
	if err := s.AppendSlots(0, 0, 48, func(int, int) (core.SlotFeatures, core.QueueType) {
		return mk(core.C1)
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSlots(1, 0, 48, func(_, slot int) (core.SlotFeatures, core.QueueType) {
		if slot == 0 {
			return mk(core.C2)
		}
		return core.SlotFeatures{}, core.Unidentified
	}); err != nil {
		t.Fatal(err)
	}
	m := s.Transitions(0)
	if m.Pairs != 48 {
		t.Fatalf("%d pairs, want 48", m.Pairs)
	}
	if m.Counts[core.C1][core.C2] != 1 {
		t.Fatalf("C1→C2 = %d, want 1", m.Counts[core.C1][core.C2])
	}
	_, emptyLabel := s.emptyContext(0)
	if m.Counts[core.C1][emptyLabel] != 47 {
		t.Fatalf("C1→empty = %d, want 47", m.Counts[core.C1][emptyLabel])
	}
}

// TestMetricsConsistency asserts Stats() and the rendered /metrics text
// agree (they read the same collectors) and the history_* series are all
// registered.
func TestMetricsConsistency(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig(4)
	cfg.Dir = t.TempDir()
	cfg.Metrics = reg
	cfg.blockRecords = 24 // several blocks, so one range query hits AND misses
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillDay(t, s, 0, 31)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Series(0, s.TimeOf(0, 0), s.TimeOf(0, 48))
	s.Heatmap(s.TimeOf(0, 3))
	s.Transitions(0)
	// Starts mid-block: the first block decodes (miss), the rest fold from
	// their summaries (hits).
	s.RangeSummary(s.TimeOf(0, 1), s.TimeOf(0, 48))

	rec := httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	st := s.Stats()
	for name, want := range map[string]int64{
		"history_appends_total":      st.Appends,
		"history_records_total":      st.Records,
		"history_blocks_total":       st.Blocks,
		"history_bytes":              st.Bytes,
		"history_truncations_total":  st.Truncations,
		"history_write_errors_total": st.WriteErrors,

		"history_summary_hits_total":          st.SummaryHits,
		"history_summary_misses_total":        st.SummaryMisses,
		"history_block_cache_hits_total":      st.BlockCacheHits,
		"history_block_cache_evictions_total": st.BlockCacheEvictions,
	} {
		line := name + " " + strconv.FormatInt(want, 10)
		if !strings.Contains(body, line) {
			t.Errorf("/metrics missing %q", line)
		}
	}
	for _, q := range []string{"series", "heatmap", "transitions", "range"} {
		if !strings.Contains(body, `history_query_seconds_count{query="`+q+`"} 1`) {
			t.Errorf("/metrics missing query histogram for %s", q)
		}
	}
	if st.Blocks == 0 || st.Records == 0 || st.Bytes == 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
	if st.SummaryHits == 0 || st.SummaryMisses == 0 {
		t.Fatalf("range query exercised only one aggregation path: %+v", st)
	}
}
