package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
)

// smallConfig is a fast configuration used by most tests: a quarter-scale
// city with a few hundred taxis and a full day.
func smallConfig(seed int64) Config {
	return Config{
		Seed: seed,
		City: citymap.Generate(seed+100, 0.2),
	}
}

func runSmall(t *testing.T, seed int64) Output {
	t.Helper()
	return Run(smallConfig(seed))
}

func TestRunProducesRecords(t *testing.T) {
	out := runSmall(t, 1)
	if len(out.Records) == 0 {
		t.Fatal("no records produced")
	}
	// With 400 taxis (~60% observed) and event-driven logging we expect at
	// least tens of thousands of records in a day.
	if len(out.Records) < 50000 {
		t.Fatalf("only %d records produced; simulator likely stalled", len(out.Records))
	}
}

func TestRecordsSortedByTime(t *testing.T) {
	out := runSmall(t, 2)
	if !sort.SliceIsSorted(out.Records, func(i, j int) bool {
		return out.Records[i].Time.Before(out.Records[j].Time)
	}) {
		t.Fatal("records not in time order")
	}
}

func TestRecordsWithinWindow(t *testing.T) {
	cfg := smallConfig(3)
	out := Run(cfg)
	start := out.Config.Start
	end := start.Add(out.Config.Duration)
	for _, r := range out.Records {
		if r.Time.Before(start) || r.Time.After(end) {
			t.Fatalf("record at %v outside [%v, %v]", r.Time, start, end)
		}
	}
}

func TestNoIllegalTransitions(t *testing.T) {
	out := runSmall(t, 4)
	if out.Truth.IllegalTransitions != 0 {
		t.Fatalf("%d illegal state transitions emitted", out.Truth.IllegalTransitions)
	}
}

func TestPerTaxiTransitionsLegal(t *testing.T) {
	// Independent check over the emitted dataset itself (not the internal
	// audit): every observed taxi's record sequence must follow Fig. 3.
	out := runSmall(t, 5)
	for id, tr := range mdt.SplitByTaxi(out.Records) {
		for i := 1; i < len(tr); i++ {
			if !mdt.LegalTransition(tr[i-1].State, tr[i].State) {
				t.Fatalf("taxi %s: illegal %v -> %v at %v",
					id, tr[i-1].State, tr[i].State, tr[i].Time)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := Run(smallConfig(6))
	b := Run(smallConfig(6))
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if !a.Records[i].Equal(b.Records[i]) {
			t.Fatalf("record %d differs between equal-seed runs", i)
		}
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats differ: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestObservedFraction(t *testing.T) {
	cfg := smallConfig(7)
	out := Run(cfg)
	ids := map[string]bool{}
	for _, r := range out.Records {
		ids[r.TaxiID] = true
	}
	frac := float64(len(ids)) / float64(out.Config.NumTaxis)
	if frac < 0.5 || frac > 0.7 {
		t.Fatalf("observed taxi fraction = %.2f, want ~0.6", frac)
	}
}

func TestJobMixPlausible(t *testing.T) {
	out := runSmall(t, 8)
	st := out.Stats
	if st.SpotPickups == 0 || st.StreetJobs == 0 || st.ScatteredSlow == 0 || st.BookingPickups == 0 {
		t.Fatalf("some job kinds never occurred: %+v", st)
	}
	if st.BusyStatePicks == 0 {
		t.Errorf("no BUSY-state pickups occurred (§7.2 behavior missing): %+v", st)
	}
	total, failed := out.Dispatcher.Totals()
	if total == 0 {
		t.Fatal("no bookings requested")
	}
	if failed != st.FailedBookings {
		t.Fatalf("dispatcher failures %d != stats %d", failed, st.FailedBookings)
	}
}

func TestSpotsAccumulatePickups(t *testing.T) {
	out := runSmall(t, 9)
	withPickups := 0
	for _, sp := range out.Truth.Spots {
		if sp.Pickups > 0 {
			withPickups++
		}
	}
	if withPickups < len(out.Truth.Spots)/2 {
		t.Fatalf("only %d/%d spots saw pickups", withPickups, len(out.Truth.Spots))
	}
}

func TestSlowPickupSignatureAtSpots(t *testing.T) {
	// The data must contain, at busy spots, sequences of >=2 consecutive
	// low-speed FREE records followed by a low-speed POB: the signature
	// Algorithm 1 extracts.
	out := runSmall(t, 10)
	busiest := out.Truth.Spots[0]
	for _, sp := range out.Truth.Spots {
		if sp.Pickups > busiest.Pickups {
			busiest = sp
		}
	}
	found := 0
	for _, tr := range mdt.SplitByTaxi(out.Records) {
		for i := 2; i < len(tr); i++ {
			if tr[i].State == mdt.POB && tr[i].Speed <= 10 &&
				tr[i-1].State == mdt.Free && tr[i-1].Speed <= 10 &&
				tr[i-2].Speed <= 10 &&
				geo.Equirect(tr[i].Pos, busiest.Landmark.Pos) < 60 {
				found++
			}
		}
	}
	if found < 10 {
		t.Fatalf("only %d slow-pickup signatures near the busiest spot (pickups=%d)",
			found, busiest.Pickups)
	}
}

func TestGroundTruthQueueLogs(t *testing.T) {
	out := runSmall(t, 11)
	start := out.Config.Start
	anyTaxiQueue := false
	for _, sp := range out.Truth.Spots {
		for i := 1; i < len(sp.TaxiQueueLog); i++ {
			if sp.TaxiQueueLog[i].Time.Before(sp.TaxiQueueLog[i-1].Time) {
				t.Fatal("taxi queue log out of order")
			}
			if sp.TaxiQueueLog[i].Len < 0 {
				t.Fatal("negative taxi queue length")
			}
		}
		if sp.AvgTaxiQueueLen(start.Add(17*time.Hour), start.Add(20*time.Hour)) >= 1 {
			anyTaxiQueue = true
		}
	}
	if !anyTaxiQueue {
		t.Error("no spot sustained a taxi queue during the evening peak")
	}
}

func TestPassengerQueuesForm(t *testing.T) {
	out := runSmall(t, 12)
	start := out.Config.Start
	anyPaxQueue := false
	for _, sp := range out.Truth.Spots {
		for _, q := range sp.PaxQueueLog {
			if !q.Time.Before(start.Add(7*time.Hour)) && q.Time.Before(start.Add(22*time.Hour)) && q.Len >= 3 {
				anyPaxQueue = true
			}
		}
	}
	if !anyPaxQueue {
		t.Error("no passenger queue of length >= 3 ever formed")
	}
}

func TestFaultInjection(t *testing.T) {
	cfg := smallConfig(13)
	cfg.InjectFaults = true
	out := Run(cfg)
	if out.Stats.InjectedFaults == 0 {
		t.Fatal("fault injection produced no faults")
	}
	rate := float64(out.Stats.InjectedFaults) / float64(out.Stats.TotalWithFaults)
	// Paper: ~2.8% erroneous records.
	if rate < 0.015 || rate > 0.045 {
		t.Fatalf("fault rate = %.3f, want ~0.028", rate)
	}
	// The dataset must contain out-of-island GPS fixes and duplicates.
	outOfIsland := 0
	dups := 0
	for i, r := range out.Records {
		if !citymap.Island.Contains(r.Pos) {
			outOfIsland++
		}
		if i > 0 && r.Equal(out.Records[i-1]) {
			dups++
		}
	}
	if outOfIsland == 0 {
		t.Error("no out-of-island GPS outliers")
	}
	if dups == 0 {
		t.Error("no duplicate records")
	}
	// Faults must not break time ordering.
	if !sort.SliceIsSorted(out.Records, func(i, j int) bool {
		return out.Records[i].Time.Before(out.Records[j].Time)
	}) {
		t.Error("fault injection broke time ordering")
	}
}

func TestWeekendVsWeekdayVolume(t *testing.T) {
	// A commuter-heavy city should see more spot pickups on a weekday
	// than the same city on a Sunday.
	city := citymap.Generate(200, 0.2)
	wd := Run(Config{Seed: 14, City: city,
		Start: time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)}) // Monday
	we := Run(Config{Seed: 14, City: city,
		Start: time.Date(2026, 1, 4, 0, 0, 0, 0, time.UTC)}) // Sunday
	if wd.Stats.SpotPickups <= we.Stats.SpotPickups {
		t.Errorf("weekday spot pickups (%d) not above Sunday (%d)",
			wd.Stats.SpotPickups, we.Stats.SpotPickups)
	}
}

func TestWeekendOnlySpotActivity(t *testing.T) {
	city := citymap.Generate(201, 0.2)
	var parkIdx = -1
	for i, lm := range city.Landmarks {
		if lm.Name == "West Leisure Park" {
			parkIdx = i
		}
	}
	if parkIdx < 0 {
		t.Fatal("leisure park missing from city")
	}
	wd := Run(Config{Seed: 15, City: city,
		Start: time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)})
	we := Run(Config{Seed: 15, City: city,
		Start: time.Date(2026, 1, 4, 0, 0, 0, 0, time.UTC)})
	if wd.Truth.Spots[parkIdx].Pickups > 0 {
		t.Errorf("weekend-only park had %d weekday pickups", wd.Truth.Spots[parkIdx].Pickups)
	}
	if we.Truth.Spots[parkIdx].Pickups == 0 {
		t.Error("weekend-only park had no Sunday pickups")
	}
}

func TestFreeTaxisWithin(t *testing.T) {
	s := New(smallConfig(16))
	// All taxis start pooled; counting within the whole island must see
	// the entire fleet.
	n := s.freeTaxisWithin(citymap.Island.Center(), 1e6)
	if n != s.cfg.NumTaxis {
		t.Fatalf("freeTaxisWithin(island) = %d, want %d", n, s.cfg.NumTaxis)
	}
	if s.freeTaxisWithin(citymap.Island.Center(), 0.0001) > s.cfg.NumTaxis {
		t.Fatal("tiny radius returned more than fleet size")
	}

	// Every two hours of the running day, the prepared radius test counts
	// what a brute-force Equirect scan counts: around spots, random points
	// and pooled taxis, at the dispatch radii and others, and at radii
	// that put another pooled taxi exactly on the circle.
	brute := func(center geo.Point, radius float64) int {
		n := 0
		for _, i := range s.pool {
			if geo.Equirect(center, s.taxis[i].pos) <= radius {
				n++
			}
		}
		for _, sp := range s.spots {
			if sp.taxiQLen > 0 && geo.Equirect(center, sp.lm.Pos) <= radius {
				n += sp.taxiQLen
			}
		}
		return n
	}
	rng := rand.New(rand.NewSource(16))
	probes, nonEmpty := 0, 0
	for h := 1; h < 24; h += 2 {
		s.schedule(s.cfg.Start.Add(time.Duration(h)*time.Hour), func() {
			probes++
			var centers []geo.Point
			for _, sp := range s.spots {
				centers = append(centers, sp.lm.Pos)
			}
			for i := 0; i < 20; i++ {
				centers = append(centers, s.randomIslandPoint(), s.taxis[s.pool[rng.Intn(len(s.pool))]].pos)
			}
			for _, c := range centers {
				radii := []float64{0, 50, 500, s.disp.Radius(), 3 * s.disp.Radius(), 10000}
				for i := 0; i < 3; i++ {
					radii = append(radii, geo.Equirect(c, s.taxis[s.pool[rng.Intn(len(s.pool))]].pos))
				}
				for _, r := range radii {
					got, want := s.freeTaxisWithin(c, r), brute(c, r)
					if got != want {
						t.Fatalf("%v: freeTaxisWithin(%v, %g) = %d, brute force %d", s.now, c, r, got, want)
					}
					if want > 0 {
						nonEmpty++
					}
				}
			}
		})
	}
	s.run()
	if probes != 12 || nonEmpty == 0 {
		t.Fatalf("%d of 12 probes ran, %d non-empty counts", probes, nonEmpty)
	}
}

func TestShortRun(t *testing.T) {
	cfg := smallConfig(17)
	cfg.Duration = time.Hour
	out := Run(cfg)
	if len(out.Records) == 0 {
		t.Fatal("1-hour run produced no records")
	}
	end := cfg.Start.Add(time.Hour)
	_ = end
	if out.Truth.end != out.Config.Start.Add(time.Hour) {
		t.Fatalf("truth end = %v", out.Truth.end)
	}
}

func TestAllElevenStatesAppear(t *testing.T) {
	// The dataset must exercise the complete Table 1 state vocabulary —
	// otherwise the analytics never sees the states it filters on.
	out := runSmall(t, 19)
	seen := map[mdt.State]bool{}
	for _, r := range out.Records {
		seen[r.State] = true
	}
	for st := mdt.State(0); int(st) < mdt.NumStates; st++ {
		if !seen[st] {
			t.Errorf("state %v never appears in a simulated day", st)
		}
	}
}

func TestMultiDayRun(t *testing.T) {
	cfg := smallConfig(20)
	cfg.Duration = 48 * time.Hour
	out := Run(cfg)
	// Records must span both days.
	day2 := out.Config.Start.Add(24 * time.Hour)
	var before, after int
	for _, r := range out.Records {
		if r.Time.Before(day2) {
			before++
		} else {
			after++
		}
	}
	if before == 0 || after == 0 {
		t.Fatalf("48h run did not span both days: %d/%d", before, after)
	}
	// Day 2's volume should be the same order as day 1's (the simulator
	// must not wind down).
	if after < before/2 {
		t.Fatalf("day 2 has %d records vs day 1's %d; simulation wound down", after, before)
	}
	if out.Truth.IllegalTransitions != 0 {
		t.Fatalf("%d illegal transitions in multi-day run", out.Truth.IllegalTransitions)
	}
}

func TestSpeedDistribution(t *testing.T) {
	out := runSmall(t, 18)
	low, high := 0, 0
	for _, r := range out.Records {
		if r.Speed < 0 {
			t.Fatal("negative speed")
		}
		if r.Speed <= 10 {
			low++
		} else {
			high++
		}
	}
	if low == 0 || high == 0 {
		t.Fatalf("degenerate speed distribution: low=%d high=%d", low, high)
	}
}

// referenceInjectFaults is the forward-copy fault injector the in-place one
// replaced: it draws the same decisions in the same order and appends each
// record, with its injected neighbours, to a fresh slice.
func referenceInjectFaults(rng *rand.Rand, recs []mdt.Record) ([]mdt.Record, int) {
	out := make([]mdt.Record, 0, len(recs)+len(recs)/32)
	injected := 0
	for _, r := range recs {
		u := rng.Float64()
		switch {
		case u < gpsRate:
			bad := r
			bad.Pos = geo.Point{
				Lat: citymapIslandMinLat - 0.3 - rng.Float64(),
				Lon: r.Pos.Lon + rng.Float64()*2 - 1,
			}
			out = append(out, bad)
			injected++
		case u < gpsRate+dupRate:
			out = append(out, r, r)
			injected++
		case u < gpsRate+dupRate+improperRate && r.State == mdt.Payment:
			spurious := r
			spurious.State = mdt.Free
			out = append(out, r, spurious, r)
			injected += 2
		default:
			out = append(out, r)
		}
	}
	return out, injected
}

// sameRecords reports the first index where a and b differ in any field,
// floats compared by their bits, or -1.
func sameRecords(a, b []mdt.Record) int {
	for i := range a {
		if i >= len(b) {
			return i
		}
		x, y := a[i], b[i]
		if !x.Time.Equal(y.Time) || x.Time.Location() != y.Time.Location() ||
			x.TaxiID != y.TaxiID || x.State != y.State ||
			math.Float64bits(x.Pos.Lat) != math.Float64bits(y.Pos.Lat) ||
			math.Float64bits(x.Pos.Lon) != math.Float64bits(y.Pos.Lon) ||
			math.Float64bits(x.Speed) != math.Float64bits(y.Speed) {
			return i
		}
	}
	if len(a) != len(b) {
		return len(a)
	}
	return -1
}

// TestInjectFaultsMatchesReference: the in-place injector produces exactly
// the forward-copy injector's records and fault count, on the bootstrap day
// queued serves (city seed 1, scale 0.25) and on random record slices with
// and without spare capacity.
func TestInjectFaultsMatchesReference(t *testing.T) {
	t.Run("bootstrap-day", func(t *testing.T) {
		cfg := Config{Seed: 1, City: citymap.Generate(1, 0.25)}
		// A fault-free run leaves the rng where a faulty run starts
		// injecting: the simulation draws the same numbers either way.
		faultFree := New(cfg)
		day := faultFree.run()
		want, wantN := referenceInjectFaults(faultFree.rng, day.Records)
		cfg.InjectFaults = true
		got := Run(cfg)
		if i := sameRecords(got.Records, want); i >= 0 {
			t.Fatalf("records differ from the reference at index %d (len %d vs %d)", i, len(got.Records), len(want))
		}
		if got.Stats.InjectedFaults != wantN || got.Stats.TotalWithFaults != len(want) {
			t.Fatalf("stats %+v, reference injected %d of %d", got.Stats, wantN, len(want))
		}
	})
	t.Run("random-slices", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		base := time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)
		for trial := 0; trial < 200; trial++ {
			n := rng.Intn(3000)
			if trial < 3 {
				n = trial // empty, one and two records
			}
			recs := make([]mdt.Record, n)
			for i := range recs {
				st := mdt.State(rng.Intn(mdt.NumStates))
				if rng.Intn(2) == 0 {
					st = mdt.Payment // make the improper-FREE fault common
				}
				recs[i] = mdt.Record{
					Time:   base.Add(time.Duration(i) * time.Second),
					TaxiID: taxiID(rng.Intn(20)),
					Pos:    geo.Point{Lat: 1.3 + rng.Float64()*0.1, Lon: 103.8 + rng.Float64()*0.1},
					Speed:  rng.Float64() * 60,
					State:  st,
				}
			}
			seed := rng.Int63()
			want, wantN := referenceInjectFaults(rand.New(rand.NewSource(seed)), recs)
			for _, spare := range []int{0, n/32 + 3, 3 * n} {
				in := make([]mdt.Record, n, n+spare)
				copy(in, recs)
				got, gotN := injectFaults(rand.New(rand.NewSource(seed)), in)
				if i := sameRecords(got, want); i >= 0 || gotN != wantN {
					t.Fatalf("trial %d, spare %d: first difference at %d, faults %d want %d", trial, spare, i, gotN, wantN)
				}
				if fits := len(got) <= cap(in); len(got) > 0 && fits != (&got[0] == &in[:1][0]) {
					t.Fatalf("trial %d, spare %d: %d records in a capacity of %d, written in place %v",
						trial, spare, len(got), cap(in), !fits)
				}
			}
		}
	})
}

// TestRecordLogAllocatedOnce: the record log New allocates holds the whole
// day, injected faults included, so the day Run returns lives in that very
// array.
func TestRecordLogAllocatedOnce(t *testing.T) {
	for _, scale := range []float64{0.1, 0.25} {
		for _, start := range []time.Time{
			time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC), // Monday
			time.Date(2026, 1, 4, 0, 0, 0, 0, time.UTC), // Sunday
		} {
			s := New(Config{Seed: 1, City: citymap.Generate(1, scale), Start: start, InjectFaults: true})
			log, size := &s.recs[:1][0], cap(s.recs)
			out := s.run()
			if &out.Records[0] != log {
				t.Errorf("scale %g, %v: the %d-record day was re-allocated; New sized the log for %d",
					scale, start.Weekday(), len(out.Records), size)
			}
		}
	}
}

// BenchmarkSimRun is the bootstrap day queued simulates at start-up: city
// seed 1, scale 0.25, faults on.
func BenchmarkSimRun(b *testing.B) {
	city := citymap.Generate(1, 0.25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(Config{Seed: 1, City: city, InjectFaults: true})
	}
}
