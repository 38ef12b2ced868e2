package store

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
	"taxiqueue/internal/sim"
)

// scanOracle is Scan's specification: every record of byTaxi with
// Time.Unix() in [from.Unix(), to.Unix()), stable-sorted by (time,
// first-seen taxi order) from each taxi's append order. order is the
// store's first-seen taxi order.
func scanOracle(byTaxi map[string][]mdt.Record, order []string, from, to time.Time) []mdt.Record {
	type keyed struct {
		r   mdt.Record
		ord int
	}
	var all []keyed
	for ord, id := range order {
		for _, r := range byTaxi[id] {
			if u := r.Time.Unix(); u >= from.Unix() && u < to.Unix() {
				all = append(all, keyed{r, ord})
			}
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if !a.r.Time.Equal(b.r.Time) {
			return a.r.Time.Before(b.r.Time)
		}
		return a.ord < b.ord
	})
	out := make([]mdt.Record, len(all))
	for i, k := range all {
		out[i] = k.r
	}
	return out
}

// referenceScan is the k-way heap merge Scan used before its slab merge,
// kept as the reference the slab merge must match record for record. The
// heap holds each cursor's current record as an integer key — Unix second,
// nanosecond, first-seen taxi order.
func referenceScan(s *Store, from, to time.Time, fn func(mdt.Record) bool) {
	fromS, toS := from.Unix(), to.Unix()
	cursors := make([]scanCursor, 0, len(s.order))
	h := make(mergeHeap, 0, len(s.order))
	for _, id := range s.order {
		c := scanCursor{blocks: s.parts[id].blocks}
		c.seek(fromS)
		if k, ok := c.key(toS); ok {
			k.c = int32(len(cursors))
			cursors = append(cursors, c)
			h = append(h, k)
		}
	}
	h.init()
	for len(h) > 0 {
		c := &cursors[h[0].c]
		if !fn(c.recs[0]) {
			return
		}
		c.recs = c.recs[1:]
		if k, ok := c.key(toS); ok {
			h[0].sec, h[0].nsec = k.sec, k.nsec
			h.down(0)
		} else {
			h.pop()
		}
	}
}

// key moves on to the next block when recs is spent and returns the merge
// key of the current record; ok is false once the taxi has no record
// before second toS.
func (c *scanCursor) key(toS int64) (k mergeKey, ok bool) {
	for len(c.recs) == 0 {
		if len(c.blocks) == 0 {
			return k, false
		}
		c.recs, c.blocks = c.blocks[0], c.blocks[1:]
	}
	t := c.recs[0].Time
	k.sec, k.nsec = t.Unix(), int32(t.Nanosecond())
	return k, k.sec < toS
}

// mergeKey orders the merge: a cursor's current record time, then the
// cursor's index c, which follows first-seen taxi order.
type mergeKey struct {
	sec  int64
	nsec int32
	c    int32
}

func (a mergeKey) less(b mergeKey) bool {
	if a.sec != b.sec {
		return a.sec < b.sec
	}
	if a.nsec != b.nsec {
		return a.nsec < b.nsec
	}
	return a.c < b.c
}

// mergeHeap is a binary min-heap of merge keys.
type mergeHeap []mergeKey

func (h mergeHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *mergeHeap) pop() {
	old := *h
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	h.down(0)
}

func (h mergeHeap) down(i int) {
	n := len(h)
	for {
		small := i
		if l := 2*i + 1; l < n && h[l].less(h[small]) {
			small = l
		}
		if r := 2*i + 2; r < n && h[r].less(h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// sameRecord compares every field at full time precision.
func sameRecord(a, b mdt.Record) bool {
	return a.Time.Equal(b.Time) && a.TaxiID == b.TaxiID && a.Pos == b.Pos &&
		a.Speed == b.Speed && a.State == b.State
}

// oracleFeed is a random interleaved feed over nTaxi taxis whose IDs sort
// differently from their first-seen order. The feed clock advances by 0-2
// whole seconds per record, so taxis often share a timestamp, and a
// quarter of the records carry a sub-second offset; each taxi's times are
// non-decreasing at full precision. Speed numbers the records, so every
// record is distinct.
func oracleFeed(rng *rand.Rand, nTaxi, n int) []mdt.Record {
	ids := make([]string, nTaxi)
	for i := range ids {
		ids[i] = fmt.Sprintf("T%03d", rng.Intn(1000)*nTaxi+i)
	}
	last := make([]time.Time, nTaxi)
	clock := t0
	feed := make([]mdt.Record, n)
	for i := range feed {
		clock = clock.Add(time.Duration(rng.Intn(3)) * time.Second)
		k := rng.Intn(nTaxi)
		at := clock
		if rng.Intn(4) == 0 {
			at = at.Add(time.Duration(rng.Int63n(int64(time.Second))))
		}
		if at.Before(last[k]) {
			at = last[k]
		}
		last[k] = at
		feed[i] = mdt.Record{Time: at, TaxiID: ids[k], Pos: geo.Point{Lat: 1.3, Lon: 103.8}, Speed: float64(i), State: mdt.Free}
	}
	return feed
}

// TestScanMatchesOracle: Scan equals referenceScan and scanOracle over
// random feeds — full and partial blocks, stores built by Append, by Load
// and by appending to a loaded store, windows that cut blocks at whole and
// sub-second bounds, and fn stopping the scan early.
func TestScanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 60; trial++ {
		feed := oracleFeed(rng, 1+rng.Intn(8), rng.Intn(4*blockTarget))
		byTaxi := map[string][]mdt.Record{}
		for _, r := range feed {
			byTaxi[r.TaxiID] = append(byTaxi[r.TaxiID], r)
		}
		appended := storeOf(t, feed)
		half := len(feed) / 2
		mixed := saveLoad(t, storeOf(t, feed[:half]))
		if err := mixed.AppendAll(feed[half:]); err != nil {
			t.Fatal(err)
		}
		stores := []struct {
			name string
			s    *Store
		}{{"append", appended}, {"load", saveLoad(t, appended)}, {"load+append", mixed}}

		end := t0
		if len(feed) > 0 {
			end = feed[len(feed)-1].Time
		}
		span := end.Sub(t0) + 2*time.Second
		windows := [][2]time.Time{{time.Time{}, time.Unix(1<<40, 0)}, {t0.Add(-time.Hour), t0}, {end.Add(time.Second), end.Add(time.Hour)}}
		for w := 0; w < 6; w++ {
			from := t0.Add(time.Duration(rng.Int63n(int64(span))))
			to := from.Add(time.Duration(rng.Int63n(int64(span))))
			windows = append(windows, [2]time.Time{from, to})
		}
		for _, st := range stores {
			name, s := st.name, st.s
			if s.Len() != len(feed) {
				t.Fatalf("trial %d %s: Len %d, want %d", trial, name, s.Len(), len(feed))
			}
			for _, win := range windows {
				checkScan(t, rng, fmt.Sprintf("trial %d %s", trial, name), s, byTaxi, win)
			}
		}
	}
}

// checkScan compares Scan over win with referenceScan and scanOracle; in
// a third of the calls fn stops all three at the same random record.
func checkScan(t *testing.T, rng *rand.Rand, name string, s *Store, byTaxi map[string][]mdt.Record, win [2]time.Time) {
	t.Helper()
	want := scanOracle(byTaxi, s.Taxis(), win[0], win[1])
	stop := len(want) + 1
	if len(want) > 0 && rng.Intn(3) == 0 {
		stop = 1 + rng.Intn(len(want))
	}
	if stop <= len(want) {
		want = want[:stop]
	}
	collect := func(scan func(from, to time.Time, fn func(mdt.Record) bool)) []mdt.Record {
		var got []mdt.Record
		scan(win[0], win[1], func(r mdt.Record) bool {
			got = append(got, r)
			return len(got) < stop
		})
		return got
	}
	got := collect(s.Scan)
	ref := collect(func(from, to time.Time, fn func(mdt.Record) bool) { referenceScan(s, from, to, fn) })
	for _, c := range []struct {
		what string
		recs []mdt.Record
	}{{"oracle", want}, {"referenceScan", ref}} {
		if len(got) != len(c.recs) {
			t.Fatalf("%s window %v..%v: Scan gave %d records, %s %d", name, win[0], win[1], len(got), c.what, len(c.recs))
		}
		for i := range got {
			if !sameRecord(got[i], c.recs[i]) {
				t.Fatalf("%s window %v..%v: record %d is %+v, %s %+v", name, win[0], win[1], i, got[i], c.what, c.recs[i])
			}
		}
	}
}

// feedShape is a feed the slab merge must order like the heap: a clock
// that advances by step per record, records at jitter past the clock, and
// taxi k joining the feed k·join after start. Each taxi's times are
// non-decreasing at full precision; taxi IDs sort differently from their
// first-seen order; Speed numbers the records.
type feedShape struct {
	name   string
	taxis  int
	n      int
	start  time.Time
	join   time.Duration
	step   func(*rand.Rand) time.Duration
	jitter func(*rand.Rand) time.Duration
}

func (f feedShape) feed(rng *rand.Rand) []mdt.Record {
	ids := make([]string, f.taxis)
	for i := range ids {
		ids[i] = fmt.Sprintf("T%04d", rng.Intn(1000)*f.taxis+i)
	}
	last := make([]time.Time, f.taxis)
	clock := f.start
	out := make([]mdt.Record, f.n)
	for i := range out {
		clock = clock.Add(f.step(rng))
		joined := f.taxis
		if f.join > 0 {
			joined = min(f.taxis, 1+int(clock.Sub(f.start)/f.join))
		}
		k := rng.Intn(joined)
		at := clock.Add(f.jitter(rng))
		if at.Before(last[k]) {
			at = last[k]
		}
		last[k] = at
		out[i] = mdt.Record{Time: at, TaxiID: ids[k], Pos: geo.Point{Lat: 1.3, Lon: 103.8}, Speed: float64(i), State: mdt.Free}
	}
	return out
}

// upTo is a random duration below d.
func upTo(d time.Duration) func(*rand.Rand) time.Duration {
	return func(rng *rand.Rand) time.Duration { return time.Duration(rng.Int63n(int64(d))) }
}

// ticks is a random multiple of tick, from 0 to n-1 ticks, so that records
// of different taxis often share a time.
func ticks(n int, tick time.Duration) func(*rand.Rand) time.Duration {
	return func(rng *rand.Rand) time.Duration { return time.Duration(rng.Intn(n)) * tick }
}

// subSecond is a nonzero offset below one second.
func subSecond(rng *rand.Rand) time.Duration {
	return time.Duration(1 + rng.Int63n(int64(time.Second)-1))
}

// TestScanSlabEdges: Scan equals referenceScan and scanOracle on feeds
// oracleFeed does not make — spans of many slabs with gaps longer than a
// slab, thousands of records from hundreds of taxis inside one second,
// every record at a sub-second time, taxis whose first record comes hours
// in, and times at both ends of the binary codec's range — over windows
// that start or end inside a slab or on its edge, with early stops inside
// a slab, for stores built by Append and by Load.
func TestScanSlabEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	slab := time.Duration(slabSeconds) * time.Second
	shapes := []feedShape{
		{name: "slabs and gaps", taxis: 12, n: 3000, start: t0,
			step: func(rng *rand.Rand) time.Duration {
				if rng.Intn(20) == 0 {
					return slab + ticks(10*slabSeconds, time.Second)(rng)
				}
				return ticks(3, time.Second)(rng)
			},
			jitter: func(rng *rand.Rand) time.Duration {
				if rng.Intn(2) == 0 {
					return 0
				}
				return subSecond(rng)
			}},
		{name: "one crowded second", taxis: 300, n: 4000, start: t0.Add(slab - time.Second),
			step: ticks(1, 0), jitter: ticks(50, 20*time.Millisecond)},
		{name: "all sub-second", taxis: 40, n: 3000, start: t0,
			step: upTo(2 * time.Second), jitter: subSecond},
		{name: "late joiners", taxis: 30, n: 4000, start: t0, join: 20 * time.Minute,
			step: ticks(20, time.Second), jitter: ticks(4, 250*time.Millisecond)},
		{name: "codec low end", taxis: 10, n: 2000, start: time.Unix(0, math.MinInt64).UTC(),
			step: ticks(3, time.Second), jitter: upTo(time.Second)},
		{name: "codec high end", taxis: 10, n: 2000, start: time.Unix(0, math.MaxInt64).UTC().Add(-2 * time.Hour),
			step: ticks(3, time.Second), jitter: upTo(time.Second)},
	}
	for _, shape := range shapes {
		for trial := 0; trial < 3; trial++ {
			feed := shape.feed(rng)
			byTaxi := map[string][]mdt.Record{}
			for _, r := range feed {
				byTaxi[r.TaxiID] = append(byTaxi[r.TaxiID], r)
			}
			first, end := feed[0].Time, feed[len(feed)-1].Time
			for _, r := range feed {
				if r.Time.Before(first) {
					first = r.Time
				}
				if r.Time.After(end) {
					end = r.Time
				}
			}
			span := end.Sub(first) + 2*time.Second
			base := time.Unix(first.Unix(), 0)
			windows := [][2]time.Time{
				{time.Time{}, time.Unix(1<<40, 0)},
				{base, base.Add(slab)},
				{base, base.Add(slab - time.Second)},
				{base.Add(time.Second), base.Add(slab + time.Second)},
				{base.Add(slab), base.Add(3 * slab)},
			}
			for w := 0; w < 8; w++ {
				from := first.Add(time.Duration(rng.Int63n(int64(span))))
				windows = append(windows, [2]time.Time{from, from.Add(time.Duration(rng.Int63n(int64(span))))})
			}
			appended := storeOf(t, feed)
			for _, st := range []struct {
				name string
				s    *Store
			}{{"append", appended}, {"load", saveLoad(t, appended)}} {
				for _, win := range windows {
					checkScan(t, rng, fmt.Sprintf("%s trial %d %s", shape.name, trial, st.name), st.s, byTaxi, win)
				}
			}
		}
	}
}

// TestScanSimulatedDay: a quarter-scale simulated day with faults, saved
// and reloaded, scans record for record as referenceScan does, over the
// whole day and over a window that cuts it mid-slab.
func TestScanSimulatedDay(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a quarter-scale day")
	}
	day := sim.Run(sim.Config{Seed: 1, City: citymap.Generate(1, 0.25), InjectFaults: true})
	s := saveLoad(t, storeOf(t, day.Records))
	mid := day.Records[len(day.Records)/2].Time
	for _, win := range [][2]time.Time{
		{time.Time{}, time.Unix(1<<40, 0)},
		{mid.Add(-3*time.Hour - 100*time.Second), mid.Add(77 * time.Second)},
	} {
		var got, want []mdt.Record
		s.Scan(win[0], win[1], func(r mdt.Record) bool { got = append(got, r); return true })
		referenceScan(s, win[0], win[1], func(r mdt.Record) bool { want = append(want, r); return true })
		if len(got) != len(want) || len(want) == 0 {
			t.Fatalf("window %v..%v: Scan gave %d records, referenceScan %d", win[0], win[1], len(got), len(want))
		}
		for i := range want {
			if !sameRecord(got[i], want[i]) {
				t.Fatalf("window %v..%v: record %d is %+v, referenceScan %+v", win[0], win[1], i, got[i], want[i])
			}
		}
	}
}

func storeOf(t *testing.T, recs []mdt.Record) *Store {
	t.Helper()
	s := New()
	if err := s.AppendAll(recs); err != nil {
		t.Fatal(err)
	}
	return s
}

func saveLoad(t *testing.T, s *Store) *Store {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}
