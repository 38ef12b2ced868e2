package store

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
	"taxiqueue/internal/sim"
)

// scanOracle is Scan's specification: every record of byTaxi with
// Time.Unix() in [from.Unix(), to.Unix()), stable-sorted by (time, place
// in order) from each taxi's append order. order is the store's taxi IDs
// in ascending order (Taxis), so ties between taxis go by ID.
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

// sameRecord compares every field at full time precision and every float
// bit for bit, so a NaN coordinate, which Save and Load carry unchanged,
// equals itself.
func sameRecord(a, b mdt.Record) bool {
	return a.Time.Equal(b.Time) && a.TaxiID == b.TaxiID && a.State == b.State &&
		math.Float64bits(a.Pos.Lat) == math.Float64bits(b.Pos.Lat) &&
		math.Float64bits(a.Pos.Lon) == math.Float64bits(b.Pos.Lon) &&
		math.Float64bits(a.Speed) == math.Float64bits(b.Speed)
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

// TestScanMatchesOracle: Scan equals scanOracle over random feeds — full
// and partial blocks, stores built by Append, by Load, by appending to a
// loaded store and by saving and loading that one, windows that cut
// blocks at whole and sub-second bounds, and fn stopping the scan early.
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
		}{{"append", appended}, {"load", saveLoad(t, appended)}, {"load+append", mixed}, {"load+append, saved and loaded", saveLoad(t, mixed)}}

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

// checkScan compares Scan over win with scanOracle; in a third of the
// calls fn stops the scan at a random record.
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
	var got []mdt.Record
	s.Scan(win[0], win[1], func(r mdt.Record) bool {
		got = append(got, r)
		return len(got) < stop
	})
	if len(got) != len(want) {
		t.Fatalf("%s window %v..%v: Scan gave %d records, oracle %d", name, win[0], win[1], len(got), len(want))
	}
	for i := range got {
		if !sameRecord(got[i], want[i]) {
			t.Fatalf("%s window %v..%v: record %d is %+v, oracle %+v", name, win[0], win[1], i, got[i], want[i])
		}
	}
}

// feedShape is a feed Scan must order like scanOracle: a clock
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

// TestScanSlabEdges: Scan equals scanOracle on feeds oracleFeed does not
// make — spans of many 256-second slabs with gaps longer than a slab,
// thousands of records from hundreds of taxis inside one second, every
// record at a sub-second time, taxis whose first record comes hours in,
// and times at both ends of the file's range — over windows that start or
// end inside a slab or on its edge, with early stops inside a slab, for
// stores built by Append and by Load.
func TestScanSlabEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const slabSeconds = 256
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

// TestScanSimulatedDay: a quarter-scale simulated day with faults is
// appended in scan order, so it never sorts, and saved and reloaded it
// scans record for record as the day itself, each run of equal times in
// taxi-ID order, over the whole day and over a window that cuts it
// mid-block.
func TestScanSimulatedDay(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a quarter-scale day")
	}
	day := sim.Run(sim.Config{Seed: 1, City: citymap.Generate(1, 0.25), InjectFaults: true})
	appended := storeOf(t, day.Records)
	if appended.unsorted {
		t.Fatal("the simulated day is not in scan order; Append marked it for a sort")
	}
	s := saveLoad(t, appended)
	ordered := slices.Clone(day.Records)
	for i := 0; i < len(ordered); {
		j := i + 1
		for j < len(ordered) && ordered[j].Time.Equal(ordered[i].Time) {
			j++
		}
		slices.SortStableFunc(ordered[i:j], func(a, b mdt.Record) int { return strings.Compare(a.TaxiID, b.TaxiID) })
		i = j
	}
	mid := day.Records[len(day.Records)/2].Time
	for _, win := range [][2]time.Time{
		{time.Time{}, time.Unix(1<<40, 0)},
		{mid.Add(-3*time.Hour - 100*time.Second), mid.Add(77 * time.Second)},
	} {
		var got, want []mdt.Record
		s.Scan(win[0], win[1], func(r mdt.Record) bool { got = append(got, r); return true })
		for _, r := range ordered {
			if u := r.Time.Unix(); u >= win[0].Unix() && u < win[1].Unix() {
				want = append(want, r)
			}
		}
		if len(got) != len(want) || len(want) == 0 {
			t.Fatalf("window %v..%v: Scan gave %d records, the day %d", win[0], win[1], len(got), len(want))
		}
		for i := range want {
			if !sameRecord(got[i], want[i]) {
				t.Fatalf("window %v..%v: record %d is %+v, the day's %+v", win[0], win[1], i, got[i], want[i])
			}
		}
	}
}

// TestConcurrentFirstScans: the first reads of a store whose appends left
// it out of scan order race to sort it; the sort runs once, under the
// store's mutex, and every reader sees the sorted records. Run under
// -race.
func TestConcurrentFirstScans(t *testing.T) {
	feed := oracleFeed(rand.New(rand.NewSource(20)), 6, 3*blockTarget)
	byTaxi := map[string][]mdt.Record{}
	for _, r := range feed {
		byTaxi[r.TaxiID] = append(byTaxi[r.TaxiID], r)
	}
	s := storeOf(t, feed)
	if !s.unsorted {
		t.Fatal("the feed appended in scan order; the test needs one that is not")
	}
	want := scanOracle(byTaxi, s.Taxis(), time.Time{}, time.Unix(1<<40, 0))
	got := make([][]mdt.Record, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				got[g] = scanAll(s)
			} else if err := s.Save(io.Discard); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for g := 0; g < len(got); g += 2 {
		if len(got[g]) != len(want) {
			t.Fatalf("reader %d saw %d records, want %d", g, len(got[g]), len(want))
		}
		for i := range want {
			if !sameRecord(got[g][i], want[i]) {
				t.Fatalf("reader %d: record %d is %+v, oracle %+v", g, i, got[g][i], want[i])
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
