package clean

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
	"taxiqueue/internal/sim"
)

// randomFeed builds a messy multi-taxi feed: random states, some
// duplicates, some out-of-island fixes, PAYMENT/FREE interleavings.
func randomFeed(rng *rand.Rand, n int) []mdt.Record {
	base := time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)
	var out []mdt.Record
	clock := 0
	for i := 0; i < n; i++ {
		clock += rng.Intn(30)
		r := mdt.Record{
			Time:   base.Add(time.Duration(clock) * time.Second),
			TaxiID: string(rune('A' + rng.Intn(4))),
			Pos:    geo.Point{Lat: 1.25 + rng.Float64()*0.15, Lon: 103.7 + rng.Float64()*0.2},
			Speed:  rng.Float64() * 60,
			State:  mdt.State(rng.Intn(mdt.NumStates)),
		}
		if rng.Float64() < 0.05 {
			r.Pos = geo.Point{Lat: 0.2, Lon: 100} // far outside
		}
		out = append(out, r)
		if rng.Float64() < 0.08 {
			out = append(out, r) // duplicate
		}
	}
	return out
}

// TestCleanIdempotent: cleaning an already-clean feed removes nothing.
func TestCleanIdempotent(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		feed := randomFeed(rng, int(size))
		once, _ := Clean(feed, islandCfg())
		twice, st := Clean(once, islandCfg())
		if st.Removed() != 0 {
			return false
		}
		if len(twice) != len(once) {
			return false
		}
		for i := range once {
			if !once[i].Equal(twice[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestCleanAccounting: input = output + removed, always.
func TestCleanAccounting(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		feed := randomFeed(rng, int(size))
		out, st := Clean(feed, islandCfg())
		return st.Input == len(feed) && st.Output == len(out) &&
			st.Input == st.Output+st.Removed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCleanNeverInvents: every output record appears in the input.
func TestCleanNeverInvents(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	feed := randomFeed(rng, 400)
	out, _ := Clean(feed, islandCfg())
	inSet := map[string]int{}
	for _, r := range feed {
		inSet[r.FormatText()]++
	}
	for _, r := range out {
		if inSet[r.FormatText()] == 0 {
			t.Fatalf("cleaned output contains invented record %v", r)
		}
		inSet[r.FormatText()]--
	}
	_ = citymap.Island
}

// compactMatchesClean checks Compact against Clean on one feed: the same
// records in the same order with the same Stats, returned as a prefix of
// the input's own array whose tail is zeroed, while Clean leaves its input
// as it was.
func compactMatchesClean(t *testing.T, feed []mdt.Record) {
	t.Helper()
	orig := append([]mdt.Record(nil), feed...)
	want, wantStats := Clean(feed, islandCfg())
	for i := range feed {
		if feed[i] != orig[i] {
			t.Fatalf("Clean modified its input at %d", i)
		}
	}
	got, gotStats := Compact(feed, islandCfg())
	if gotStats != wantStats {
		t.Fatalf("Compact stats %v, Clean stats %v", gotStats, wantStats)
	}
	if len(got) != len(want) {
		t.Fatalf("Compact kept %d records, Clean %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: Compact %v, Clean %v", i, got[i], want[i])
		}
	}
	if len(got) > 0 && &got[0] != &feed[0] {
		t.Fatal("Compact's result is not a prefix of its input")
	}
	for i := len(got); i < len(feed); i++ {
		if feed[i] != (mdt.Record{}) {
			t.Fatalf("record %d past the kept prefix is not zeroed: %v", i, feed[i])
		}
	}
}

// TestCompactMatchesClean: on the property generator's messy feeds and on
// a simulated day with every fault class, Compact is Clean done in place.
func TestCompactMatchesClean(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		compactMatchesClean(t, randomFeed(rand.New(rand.NewSource(seed)), int(size)))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	compactMatchesClean(t, nil)
	day := sim.Run(sim.Config{Seed: 99, City: citymap.Generate(300, 0.1), InjectFaults: true,
		Duration: 6 * time.Hour})
	if day.Stats.InjectedFaults == 0 {
		t.Fatal("the simulated day has no faults")
	}
	compactMatchesClean(t, day.Records)
}
