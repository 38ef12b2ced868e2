package core

import (
	"math/rand"
	"sort"
	"testing"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/clean"
	"taxiqueue/internal/mdt"
	"taxiqueue/internal/sim"
)

// samePickups fails t unless got equals want field for field: the same
// pickups in the same order, every centroid, wait, end and §7.2 fact
// bit-equal.
func samePickups(t *testing.T, what string, got, want []Pickup) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pickups, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pickup %d is %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestAnalyzePickupsMatchSplitFullDay: on a full-scale simulated day,
// Engine.Analyze's one-pass PEA returns exactly
// ExtractAll(SplitByTaxi(recs)).
func TestAnalyzePickupsMatchSplitFullDay(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("simulates a full-scale day")
	}
	day := sim.Run(sim.Config{Seed: 1, City: citymap.Generate(1, 1), InjectFaults: true})
	recs, _ := clean.Clean(day.Records, clean.Config{ValidFrame: citymap.Island})
	want := ExtractAll(mdt.SplitByTaxi(recs), DefaultSpeedThresholdKmh)
	e, err := NewEngine(DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Analyze(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 10000 {
		t.Fatalf("only %d pickups in a full-scale day", len(want))
	}
	samePickups(t, "full-scale day", res.Pickups, want)
}

// TestOnePassPEAShuffledTaxis: the one-pass PEA needs time order only
// within each taxi. Interleaving the taxis' records in random order must
// not change its pickups.
func TestOnePassPEAShuffledTaxis(t *testing.T) {
	recs := simDay(t).cleaned
	want := ExtractAll(mdt.SplitByTaxi(recs), DefaultSpeedThresholdKmh)
	samePickups(t, "time-ordered", extractDay(recs, DefaultSpeedThresholdKmh), want)

	// Deal the records out again in a random taxi order: each draw takes
	// the next record of a random taxi, so every taxi stays in time order
	// while the day as a whole does not.
	byTaxi := mdt.SplitByTaxi(recs)
	ids := make([]string, 0, len(byTaxi))
	for id := range byTaxi {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	rng := rand.New(rand.NewSource(14))
	shuffled := make([]mdt.Record, 0, len(recs))
	for len(ids) > 0 {
		k := rng.Intn(len(ids))
		tr := byTaxi[ids[k]]
		shuffled = append(shuffled, tr[0])
		if byTaxi[ids[k]] = tr[1:]; len(tr) == 1 {
			ids = append(ids[:k], ids[k+1:]...)
		}
	}
	samePickups(t, "shuffled", extractDay(shuffled, DefaultSpeedThresholdKmh), want)
}
