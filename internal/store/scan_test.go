package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
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

// TestScanMatchesOracle: Scan equals scanOracle over random feeds — full
// and partial blocks, stores built by Append, by Load and by appending to a
// loaded store, windows that cut blocks at whole and sub-second bounds,
// and fn stopping the scan early.
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
				want := scanOracle(byTaxi, s.Taxis(), win[0], win[1])
				stop := len(want) + 1
				if len(want) > 0 && rng.Intn(3) == 0 {
					stop = 1 + rng.Intn(len(want))
				}
				var got []mdt.Record
				s.Scan(win[0], win[1], func(r mdt.Record) bool {
					got = append(got, r)
					return len(got) < stop
				})
				if stop <= len(want) {
					want = want[:stop]
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d %s window %v..%v: %d records, oracle %d", trial, name, win[0], win[1], len(got), len(want))
				}
				for i := range want {
					if !sameRecord(got[i], want[i]) {
						t.Fatalf("trial %d %s window %v..%v: record %d is %+v, oracle %+v", trial, name, win[0], win[1], i, got[i], want[i])
					}
				}
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
