package core

import (
	"math"
	"testing"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/geo"
)

var (
	regA = geo.Point{Lat: 1.3000, Lon: 103.8300} // Central
	regB = geo.Point{Lat: 1.3600, Lon: 103.9900} // East
	regC = geo.Point{Lat: 1.3500, Lon: 103.7000} // West
)

func jitterSpot(p geo.Point, dx, dy float64, pickups int) QueueSpot {
	return QueueSpot{Pos: geo.Offset(p, dx, dy), PickupCount: pickups}
}

func TestMergeSpotsConsolidates(t *testing.T) {
	// Spot A appears all 5 days (within a few meters), spot B on 4, spot C
	// only once (sporadic).
	var daily [][]QueueSpot
	for d := 0; d < 5; d++ {
		day := []QueueSpot{jitterSpot(regA, float64(d), -float64(d), 200+d)}
		if d > 0 {
			day = append(day, jitterSpot(regB, -float64(d), float64(d), 300))
		}
		if d == 2 {
			day = append(day, jitterSpot(regC, 0, 0, 80))
		}
		daily = append(daily, day)
	}
	reg := MergeSpots(daily, 20, 3)
	if len(reg) != 3 {
		t.Fatalf("registry has %d spots, want 3", len(reg))
	}
	stable := Stable(reg)
	sporadic := Sporadics(reg)
	if len(stable) != 2 || len(sporadic) != 1 {
		t.Fatalf("stable/sporadic split = %d/%d, want 2/1", len(stable), len(sporadic))
	}
	// The sporadic one is C.
	if geo.Equirect(sporadic[0].Pos, regC) > 5 {
		t.Fatalf("sporadic spot at %v, want near %v", sporadic[0].Pos, regC)
	}
	if sporadic[0].Days != 1 {
		t.Fatalf("sporadic days = %d", sporadic[0].Days)
	}
	// A's consolidated position is the mean of its jittered instances.
	var a *RegistrySpot
	for i := range reg {
		if geo.Equirect(reg[i].Pos, regA) < 10 {
			a = &reg[i]
		}
	}
	if a == nil {
		t.Fatal("spot A missing from registry")
	}
	if a.Days != 5 {
		t.Fatalf("A seen on %d days, want 5", a.Days)
	}
	if math.Abs(a.AvgPickups-202) > 0.001 {
		t.Fatalf("A avg pickups = %g, want 202", a.AvgPickups)
	}
	if a.Zone != citymap.Central {
		t.Fatalf("A zone = %v", a.Zone)
	}
}

func TestMergeSpotsOrdering(t *testing.T) {
	daily := [][]QueueSpot{{
		jitterSpot(regA, 0, 0, 100),
		jitterSpot(regB, 0, 0, 400),
	}}
	reg := MergeSpots(daily, 20, 1)
	if len(reg) != 2 || reg[0].AvgPickups < reg[1].AvgPickups {
		t.Fatalf("registry not ordered by pickups: %+v", reg)
	}
}

func TestMergeSpotsEmpty(t *testing.T) {
	if got := MergeSpots(nil, 20, 1); got != nil {
		t.Fatal("empty input produced spots")
	}
	if got := MergeSpots([][]QueueSpot{{}, {}}, 20, 1); got != nil {
		t.Fatal("empty days produced spots")
	}
}

func TestMergeSpotsDefaults(t *testing.T) {
	daily := [][]QueueSpot{{jitterSpot(regA, 0, 0, 10)}}
	reg := MergeSpots(daily, 20, 1) // what both callers pass on one day
	if len(reg) != 1 || reg[0].Sporadic {
		t.Fatalf("one day's spot mishandled: %+v", reg)
	}
}

func TestBuildDayTypeRegistries(t *testing.T) {
	daySets := map[time.Weekday][]QueueSpot{}
	// Weekday spot at A every weekday; weekend spot at C both weekend days.
	for _, wd := range []time.Weekday{time.Monday, time.Tuesday, time.Wednesday, time.Thursday, time.Friday} {
		daySets[wd] = []QueueSpot{jitterSpot(regA, 0, 0, 250)}
	}
	for _, wd := range []time.Weekday{time.Saturday, time.Sunday} {
		daySets[wd] = []QueueSpot{jitterSpot(regA, 0, 0, 150), jitterSpot(regC, 0, 0, 120)}
	}
	regs := BuildDayTypeRegistries(daySets)
	wk := regs[citymap.Weekday]
	we := regs[citymap.Weekend]
	if len(wk) != 1 {
		t.Fatalf("weekday registry has %d spots, want 1", len(wk))
	}
	if wk[0].Days != 5 || wk[0].Sporadic {
		t.Fatalf("weekday spot misaggregated: %+v", wk[0])
	}
	if len(we) != 2 {
		t.Fatalf("weekend registry has %d spots, want 2", len(we))
	}
	for _, s := range we {
		if s.Sporadic {
			t.Fatalf("weekend spot on both days flagged sporadic: %+v", s)
		}
	}
}
