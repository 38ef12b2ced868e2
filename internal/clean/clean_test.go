package clean

import (
	"sort"
	"testing"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
	"taxiqueue/internal/sim"
)

var t0 = time.Date(2026, 1, 5, 9, 0, 0, 0, time.UTC)

func rec(id string, sec int, state mdt.State, pos geo.Point) mdt.Record {
	return mdt.Record{
		Time: t0.Add(time.Duration(sec) * time.Second), TaxiID: id,
		Pos: pos, Speed: 10, State: state,
	}
}

var inTown = geo.Point{Lat: 1.30, Lon: 103.85}

func islandCfg() Config { return Config{ValidFrame: citymap.Island} }

func TestCleanPassesGoodRecords(t *testing.T) {
	recs := []mdt.Record{
		rec("A", 0, mdt.Free, inTown),
		rec("A", 10, mdt.POB, inTown),
		rec("A", 600, mdt.Payment, inTown),
		rec("A", 640, mdt.Free, inTown),
	}
	out, stats := Clean(recs, islandCfg())
	if len(out) != 4 || stats.Removed() != 0 {
		t.Fatalf("clean removed good records: %v", stats)
	}
}

func TestCleanRemovesDuplicates(t *testing.T) {
	r := rec("A", 0, mdt.Free, inTown)
	recs := []mdt.Record{r, r, rec("A", 10, mdt.POB, inTown)}
	out, stats := Clean(recs, islandCfg())
	if stats.Duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1", stats.Duplicates)
	}
	if len(out) != 2 {
		t.Fatalf("output = %d records, want 2", len(out))
	}
}

func TestCleanDuplicatesArePerTaxi(t *testing.T) {
	// Identical records from DIFFERENT taxis are not duplicates.
	a := rec("A", 0, mdt.Free, inTown)
	b := a
	b.TaxiID = "B"
	out, stats := Clean([]mdt.Record{a, b}, islandCfg())
	if stats.Duplicates != 0 || len(out) != 2 {
		t.Fatalf("cross-taxi records treated as duplicates: %v", stats)
	}
}

func TestCleanRemovesGPSOutliers(t *testing.T) {
	sea := geo.Point{Lat: 0.5, Lon: 103.85}
	recs := []mdt.Record{
		rec("A", 0, mdt.Free, inTown),
		rec("A", 10, mdt.Free, sea),
		rec("A", 20, mdt.POB, inTown),
	}
	out, stats := Clean(recs, islandCfg())
	if stats.GPSOutliers != 1 || len(out) != 2 {
		t.Fatalf("gps outliers = %d, out = %d", stats.GPSOutliers, len(out))
	}
}

func TestCleanRemovesFreeBetweenPayments(t *testing.T) {
	recs := []mdt.Record{
		rec("A", 0, mdt.POB, inTown),
		rec("A", 100, mdt.Payment, inTown),
		rec("A", 101, mdt.Free, inTown), // clock-sync bug
		rec("A", 102, mdt.Payment, inTown),
		rec("A", 150, mdt.Free, inTown), // legitimate
	}
	out, stats := Clean(recs, islandCfg())
	if stats.ImproperStates != 1 {
		t.Fatalf("improper states = %d, want 1", stats.ImproperStates)
	}
	var states []mdt.State
	for _, r := range out {
		states = append(states, r.State)
	}
	want := []mdt.State{mdt.POB, mdt.Payment, mdt.Payment, mdt.Free}
	if len(states) != len(want) {
		t.Fatalf("states = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("states = %v, want %v", states, want)
		}
	}
}

func TestCleanKeepsLegitimateFreeAfterPayment(t *testing.T) {
	// PAYMENT -> FREE -> POB is the normal dropoff-then-new-job sequence;
	// the held FREE must be restored.
	recs := []mdt.Record{
		rec("A", 0, mdt.Payment, inTown),
		rec("A", 40, mdt.Free, inTown),
		rec("A", 200, mdt.POB, inTown),
	}
	out, stats := Clean(recs, islandCfg())
	if stats.ImproperStates != 0 {
		t.Fatalf("legitimate FREE removed: %v", stats)
	}
	if len(out) != 3 || out[1].State != mdt.Free {
		t.Fatalf("output sequence wrong: %v", out)
	}
}

func TestCleanKeepsTrailingFree(t *testing.T) {
	// Dataset ends with PAYMENT -> FREE: the held FREE must be flushed.
	recs := []mdt.Record{
		rec("A", 0, mdt.Payment, inTown),
		rec("A", 40, mdt.Free, inTown),
	}
	out, stats := Clean(recs, islandCfg())
	if len(out) != 2 || stats.Removed() != 0 {
		t.Fatalf("trailing FREE lost: out=%d stats=%v", len(out), stats)
	}
}

func TestCleanPreservesGlobalTimeOrder(t *testing.T) {
	// Interleave taxis so a held FREE from taxi A straddles records from
	// taxi B; output must still be time-sorted.
	recs := []mdt.Record{
		rec("A", 0, mdt.Payment, inTown),
		rec("A", 10, mdt.Free, inTown), // held
		rec("B", 12, mdt.Free, inTown),
		rec("B", 14, mdt.POB, inTown),
		rec("A", 20, mdt.POB, inTown), // triggers flush of the held FREE
	}
	out, _ := Clean(recs, islandCfg())
	if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) }) {
		t.Fatalf("output not time-sorted: %v", out)
	}
	if len(out) != 5 {
		t.Fatalf("output = %d records, want 5", len(out))
	}
}

func TestCleanEmptyInput(t *testing.T) {
	out, stats := Clean(nil, islandCfg())
	if len(out) != 0 || stats.Input != 0 || stats.Rate() != 0 {
		t.Fatalf("empty input mishandled: %v", stats)
	}
}

func TestCleanOnSimulatedFaults(t *testing.T) {
	// End-to-end: the cleaner must remove close to the injected error rate
	// from a simulated day (the paper's 2.8%).
	cfg := sim.Config{Seed: 99, City: citymap.Generate(300, 0.15), InjectFaults: true}
	out := sim.Run(cfg)
	cleaned, stats := Clean(out.Records, islandCfg())
	if stats.Rate() < 0.01 || stats.Rate() > 0.05 {
		t.Fatalf("cleaning rate = %.3f, want ~0.028 (%v)", stats.Rate(), stats)
	}
	if stats.GPSOutliers == 0 || stats.Duplicates == 0 || stats.ImproperStates == 0 {
		t.Fatalf("some error class never removed: %v", stats)
	}
	// All survivors are in-frame and time-ordered.
	for _, r := range cleaned {
		if !citymap.Island.Contains(r.Pos) {
			t.Fatal("out-of-frame record survived cleaning")
		}
	}
	if !sort.SliceIsSorted(cleaned, func(i, j int) bool {
		return cleaned[i].Time.Before(cleaned[j].Time)
	}) {
		t.Fatal("cleaned output not time-sorted")
	}
	// No exact adjacent duplicates survive per taxi.
	last := map[string]mdt.Record{}
	for _, r := range cleaned {
		if prev, ok := last[r.TaxiID]; ok && r.Equal(prev) {
			t.Fatal("adjacent duplicate survived cleaning")
		}
		last[r.TaxiID] = r
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Input: 100, Output: 97, Duplicates: 1, ImproperStates: 1, GPSOutliers: 1}
	if s.Removed() != 3 {
		t.Fatalf("Removed = %d", s.Removed())
	}
	if s.Rate() != 0.03 {
		t.Fatalf("Rate = %g", s.Rate())
	}
	if str := s.String(); str == "" {
		t.Fatal("empty String()")
	}
}

func benchDay() []mdt.Record {
	cfg := sim.Config{Seed: 100, City: citymap.Generate(301, 0.1), InjectFaults: true,
		Duration: 6 * time.Hour}
	return sim.Run(cfg).Records
}

func BenchmarkClean(b *testing.B) {
	day := benchDay()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Clean(day, islandCfg())
	}
}

// BenchmarkCompact cleans the same day as BenchmarkClean in place. Each
// iteration first restores the raw day into one reused buffer, untimed.
func BenchmarkCompact(b *testing.B) {
	day := benchDay()
	buf := make([]mdt.Record, len(day))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(buf, day)
		b.StartTimer()
		Compact(buf, islandCfg())
	}
}

// BenchmarkStreamer cleans the same day as BenchmarkClean the way one live
// ingest shard does: a fresh Streamer, every record through Push, then
// Flush.
func BenchmarkStreamer(b *testing.B) {
	day := benchDay()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewStreamer(islandCfg())
		for _, r := range day {
			s.Push(r)
		}
		s.Flush()
	}
}
