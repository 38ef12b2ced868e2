package core

import (
	"math"
	"testing"
	"time"

	"taxiqueue/internal/mdt"
)

func midnight() time.Time { return time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC) }

// streetWait fabricates a street wait starting at start lasting d.
func streetWait(start time.Time, d time.Duration) Wait {
	return Wait{Start: start, End: start.Add(d), StartState: mdt.Free}
}

func bookingWait(start time.Time, d time.Duration) Wait {
	return Wait{Start: start, End: start.Add(d), StartState: mdt.Arrived}
}

func TestSlotGridIndex(t *testing.T) {
	g := DaySlots(midnight())
	if g.Slots != 48 || g.SlotLen != 30*time.Minute {
		t.Fatalf("grid = %+v", g)
	}
	cases := []struct {
		at   time.Time
		want int
	}{
		{midnight(), 0},
		{midnight().Add(29 * time.Minute), 0},
		{midnight().Add(30 * time.Minute), 1},
		{midnight().Add(18*time.Hour + 30*time.Minute), 37},
		{midnight().Add(24*time.Hour - time.Second), 47},
		{midnight().Add(24 * time.Hour), -1},
		{midnight().Add(-time.Second), -1},
	}
	for _, c := range cases {
		if got := g.Index(c.at); got != c.want {
			t.Errorf("Index(%v) = %d, want %d", c.at, got, c.want)
		}
	}
	from, to := g.Bounds(37)
	if from != midnight().Add(18*time.Hour+30*time.Minute) || to.Sub(from) != 30*time.Minute {
		t.Errorf("Bounds(37) = %v..%v", from, to)
	}
}

func TestComputeFeaturesBasic(t *testing.T) {
	g := DaySlots(midnight())
	slotStart := midnight().Add(9 * time.Hour) // slot 18
	var waits []Wait
	// 6 street waits of 2 minutes each, starting within the slot.
	for i := 0; i < 6; i++ {
		waits = append(waits, streetWait(slotStart.Add(time.Duration(i)*4*time.Minute), 2*time.Minute))
	}
	feats := ComputeFeatures(waits, g, NoAmplification)
	f := feats[18]
	if f.NArr != 6 {
		t.Fatalf("NArr = %g, want 6", f.NArr)
	}
	if f.TWait != 2*time.Minute {
		t.Fatalf("TWait = %v, want 2m", f.TWait)
	}
	// L̄ = t̄wait * λ̄ = 120 s * (6/1800 s) = 0.4.
	if math.Abs(f.QLen-0.4) > 1e-9 {
		t.Fatalf("QLen = %g, want 0.4", f.QLen)
	}
	// Departures every 4 minutes: mean interval 4m over 5 gaps.
	if f.NDep != 6 {
		t.Fatalf("NDep = %g, want 6", f.NDep)
	}
	if f.TDep != 4*time.Minute {
		t.Fatalf("TDep = %v, want 4m", f.TDep)
	}
	if f.StreetDepartures != 6 || f.BookingDepartures != 0 {
		t.Fatalf("departure split %d/%d", f.StreetDepartures, f.BookingDepartures)
	}
}

func TestComputeFeaturesBookingExcludedFromArrivals(t *testing.T) {
	g := DaySlots(midnight())
	slotStart := midnight().Add(12 * time.Hour)
	waits := []Wait{
		streetWait(slotStart, time.Minute),
		bookingWait(slotStart.Add(2*time.Minute), time.Minute),
		bookingWait(slotStart.Add(4*time.Minute), time.Minute),
	}
	f := ComputeFeatures(waits, g, NoAmplification)[24]
	if f.NArr != 1 {
		t.Fatalf("NArr = %g, want 1 (street only)", f.NArr)
	}
	if f.NDep != 3 {
		t.Fatalf("NDep = %g, want 3 (street + booking)", f.NDep)
	}
	if f.BookingDepartures != 2 {
		t.Fatalf("BookingDepartures = %d", f.BookingDepartures)
	}
}

func TestComputeFeaturesAmplification(t *testing.T) {
	g := DaySlots(midnight())
	slotStart := midnight()
	waits := []Wait{
		streetWait(slotStart.Add(time.Minute), 2*time.Minute),
		streetWait(slotStart.Add(5*time.Minute), 2*time.Minute),
		streetWait(slotStart.Add(9*time.Minute), 2*time.Minute),
	}
	raw := ComputeFeatures(waits, g, NoAmplification)[0]
	amp := ComputeFeatures(waits, g, PaperAmplification)[0]
	if math.Abs(amp.NArr-raw.NArr*1.667) > 1e-9 {
		t.Errorf("NArr amplification: %g vs %g", amp.NArr, raw.NArr)
	}
	if math.Abs(amp.NDep-raw.NDep*1.667) > 1e-9 {
		t.Errorf("NDep amplification: %g vs %g", amp.NDep, raw.NDep)
	}
	if math.Abs(float64(amp.TDep)-float64(raw.TDep)*0.6) > 1 {
		t.Errorf("TDep dampening: %v vs %v", amp.TDep, raw.TDep)
	}
	// TWait is not amplified.
	if amp.TWait != raw.TWait {
		t.Errorf("TWait changed by amplification")
	}
	// QLen scales with NArr.
	if math.Abs(amp.QLen-raw.QLen*1.667) > 1e-9 {
		t.Errorf("QLen amplification: %g vs %g", amp.QLen, raw.QLen)
	}
}

func TestComputeFeaturesCrossSlotWait(t *testing.T) {
	// A wait starting in slot 0 and ending in slot 1 contributes its
	// arrival to slot 0 and its departure to slot 1.
	g := DaySlots(midnight())
	w := streetWait(midnight().Add(25*time.Minute), 10*time.Minute)
	feats := ComputeFeatures([]Wait{w}, g, NoAmplification)
	if feats[0].NArr != 1 || feats[0].NDep != 0 {
		t.Fatalf("slot 0 = %+v", feats[0])
	}
	if feats[1].NDep != 1 || feats[1].NArr != 0 {
		t.Fatalf("slot 1 = %+v", feats[1])
	}
}

func TestComputeFeaturesEmpty(t *testing.T) {
	g := DaySlots(midnight())
	feats := ComputeFeatures(nil, g, PaperAmplification)
	if len(feats) != 48 {
		t.Fatalf("feature count %d", len(feats))
	}
	for j, f := range feats {
		if f.NArr != 0 || f.NDep != 0 || f.QLen != 0 || f.TWait != 0 || f.TDep != 0 {
			t.Fatalf("slot %d non-zero: %+v", j, f)
		}
	}
}

// TestDepartureIntervalsWithinSlotOnly: t̄dep averages only the intervals
// between departures of the same slot; the gap to a departure in the next
// slot never enters either slot.
func TestDepartureIntervalsWithinSlotOnly(t *testing.T) {
	g := DaySlots(midnight())
	waits := []Wait{
		streetWait(midnight().Add(1*time.Minute), time.Minute),  // ends 0:02
		streetWait(midnight().Add(10*time.Minute), time.Minute), // ends 0:11
		streetWait(midnight().Add(31*time.Minute), time.Minute), // ends 0:32 (slot 1)
	}
	f := ComputeFeatures(waits, g, NoAmplification)
	if f[0].TDep != 9*time.Minute {
		t.Fatalf("slot 0 TDep = %v, want 9m", f[0].TDep)
	}
	if f[1].TDep != 0 {
		t.Fatalf("slot 1 TDep = %v, want 0 (one departure, no interval)", f[1].TDep)
	}
}

func TestLittleLawConsistencyWithQueueingPackage(t *testing.T) {
	// The QLen feature must equal Little's law, L = λW, applied to the
	// same inputs.
	g := DaySlots(midnight())
	var waits []Wait
	for i := 0; i < 10; i++ {
		waits = append(waits, streetWait(midnight().Add(time.Duration(i)*3*time.Minute), 5*time.Minute))
	}
	f := ComputeFeatures(waits, g, NoAmplification)[0]
	lambda := f.NArr / g.SlotLen.Seconds()
	want := lambda * f.TWait.Seconds()
	if math.Abs(f.QLen-want) > 1e-9 {
		t.Fatalf("QLen = %g, Little gives %g", f.QLen, want)
	}
}
