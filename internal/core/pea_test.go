package core

import (
	"testing"
	"time"

	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
)

var t0 = time.Date(2026, 1, 5, 9, 0, 0, 0, time.UTC)

var spotPos = geo.Point{Lat: 1.3040, Lon: 103.8330}

// traj builds a trajectory from (secondsOffset, speed, state) triples at
// spotPos.
func traj(steps ...[3]float64) mdt.Trajectory {
	tr := make(mdt.Trajectory, len(steps))
	for i, s := range steps {
		tr[i] = mdt.Record{
			Time:   t0.Add(time.Duration(s[0]) * time.Second),
			TaxiID: "SH0001A",
			Pos:    spotPos,
			Speed:  s[1],
			State:  mdt.State(s[2]),
		}
	}
	return tr
}

func st(s mdt.State) float64 { return float64(s) }

// extractRuns is ExtractPickups that also returns a copy of the run PEA
// committed for each pickup: the runs production PEA commits, which a
// Pickup no longer carries.
func extractRuns(tr mdt.Trajectory, speedThresholdKmh float64) ([]Pickup, []mdt.Trajectory) {
	var pea PEA
	var pickups []Pickup
	var runs []mdt.Trajectory
	for _, p := range tr {
		if pk, run, ok := pea.step(p, speedThresholdKmh); ok {
			pickups = append(pickups, pk)
			runs = append(runs, append(mdt.Trajectory(nil), run...))
		}
	}
	return pickups, runs
}

func TestPEAExtractsSlowStreetPickup(t *testing.T) {
	// approach fast, crawl FREE x3, POB slow, depart fast.
	tr := traj(
		[3]float64{0, 35, st(mdt.Free)},
		[3]float64{60, 5, st(mdt.Free)},
		[3]float64{100, 3, st(mdt.Free)},
		[3]float64{140, 2, st(mdt.Free)},
		[3]float64{180, 4, st(mdt.POB)},
		[3]float64{240, 30, st(mdt.POB)},
	)
	got, runs := extractRuns(tr, 10)
	if len(got) != 1 {
		t.Fatalf("extracted %d pickups, want 1", len(got))
	}
	sub := runs[0]
	if len(sub) != 4 {
		t.Fatalf("sub-trajectory has %d records, want 4 (crawl+POB)", len(sub))
	}
	if sub[0].State != mdt.Free || sub[len(sub)-1].State != mdt.POB {
		t.Fatalf("sub-trajectory states wrong: %v..%v", sub[0].State, sub[len(sub)-1].State)
	}
	for _, r := range sub {
		if r.Speed > 10 {
			t.Fatalf("sub-trajectory contains high-speed record %v", r.Speed)
		}
	}
	if d := geo.Equirect(got[0].Centroid, spotPos); d > 1 {
		t.Fatalf("centroid %.2f m from spot", d)
	}
}

func TestPEARejectsTrafficJam(t *testing.T) {
	// Low-speed run with no state change (rule 3).
	tr := traj(
		[3]float64{0, 30, st(mdt.Free)},
		[3]float64{60, 4, st(mdt.Free)},
		[3]float64{100, 2, st(mdt.Free)},
		[3]float64{140, 3, st(mdt.Free)},
		[3]float64{200, 35, st(mdt.Free)},
	)
	if got := ExtractPickups(tr, 10); len(got) != 0 {
		t.Fatalf("jam extracted as pickup: %d", len(got))
	}
}

func TestPEARejectsDropoff(t *testing.T) {
	// Occupied -> unoccupied (rule 1: passenger alight).
	tr := traj(
		[3]float64{0, 30, st(mdt.POB)},
		[3]float64{60, 2, st(mdt.Payment)},
		[3]float64{100, 1, st(mdt.Free)},
		[3]float64{160, 30, st(mdt.Free)},
	)
	if got := ExtractPickups(tr, 10); len(got) != 0 {
		t.Fatalf("dropoff extracted as pickup: %d", len(got))
	}
}

func TestPEARejectsLeaveForBooking(t *testing.T) {
	// FREE -> ONCALL (rule 2: taxi leaves for a booking elsewhere).
	tr := traj(
		[3]float64{0, 30, st(mdt.Free)},
		[3]float64{60, 4, st(mdt.Free)},
		[3]float64{100, 3, st(mdt.OnCall)},
		[3]float64{160, 35, st(mdt.OnCall)},
	)
	if got := ExtractPickups(tr, 10); len(got) != 0 {
		t.Fatalf("FREE->ONCALL leave extracted as pickup: %d", len(got))
	}
}

func TestPEAExtractsBookingPickup(t *testing.T) {
	// ARRIVED crawl then POB: a booking pickup at the spot.
	tr := traj(
		[3]float64{0, 30, st(mdt.OnCall)},
		[3]float64{120, 3, st(mdt.Arrived)},
		[3]float64{180, 0, st(mdt.Arrived)},
		[3]float64{240, 4, st(mdt.POB)},
		[3]float64{300, 30, st(mdt.POB)},
	)
	got := ExtractPickups(tr, 10)
	if len(got) != 1 {
		t.Fatalf("booking pickup not extracted: %d", len(got))
	}
}

func TestPEAExtractsDropoffThenPickup(t *testing.T) {
	// POB->PAYMENT->FREE->...->POB all at low speed: starts occupied,
	// ends occupied -> rule 1 does not fire; must be extracted.
	tr := traj(
		[3]float64{0, 30, st(mdt.POB)},
		[3]float64{60, 2, st(mdt.Payment)},
		[3]float64{100, 1, st(mdt.Free)},
		[3]float64{160, 2, st(mdt.Free)},
		[3]float64{220, 3, st(mdt.POB)},
		[3]float64{280, 30, st(mdt.POB)},
	)
	got := ExtractPickups(tr, 10)
	if len(got) != 1 {
		t.Fatalf("dropoff-then-pickup not extracted: %d", len(got))
	}
}

func TestPEARequiresTwoConsecutiveLowSpeed(t *testing.T) {
	// Single low-speed record between fast ones (a quick hail): rejected.
	tr := traj(
		[3]float64{0, 30, st(mdt.Free)},
		[3]float64{60, 8, st(mdt.Free)},
		[3]float64{90, 25, st(mdt.POB)},
		[3]float64{150, 35, st(mdt.POB)},
	)
	if got := ExtractPickups(tr, 10); len(got) != 0 {
		t.Fatalf("quick hail extracted: %d", len(got))
	}
}

func TestPEANonOperationalResets(t *testing.T) {
	// BREAK inside the crawl kills the run even with a state change.
	tr := traj(
		[3]float64{0, 4, st(mdt.Free)},
		[3]float64{60, 3, st(mdt.Free)},
		[3]float64{100, 0, st(mdt.Break)},
		[3]float64{200, 0, st(mdt.Free)},
		[3]float64{260, 4, st(mdt.POB)},
		[3]float64{320, 30, st(mdt.POB)},
	)
	got, runs := extractRuns(tr, 10)
	// After the BREAK reset, FREE(200,0) and POB(260,4) form a new
	// two-record run terminated by the fast POB: FREE->POB, extract.
	if len(got) != 1 {
		t.Fatalf("extracted %d pickups, want 1 (post-break run)", len(got))
	}
	if runs[0][0].Time != t0.Add(200*time.Second) {
		t.Fatalf("run did not restart after BREAK: starts %v", runs[0][0].Time)
	}
}

func TestPEAOpenRunAtEndDropped(t *testing.T) {
	tr := traj(
		[3]float64{0, 4, st(mdt.Free)},
		[3]float64{60, 3, st(mdt.Free)},
		[3]float64{120, 2, st(mdt.POB)},
	)
	if got := ExtractPickups(tr, 10); len(got) != 0 {
		t.Fatalf("unterminated run extracted: %d", len(got))
	}
}

func TestPEAMultiplePickupsOneTrajectory(t *testing.T) {
	var steps [][3]float64
	base := 0.0
	for k := 0; k < 3; k++ {
		steps = append(steps,
			[3]float64{base + 0, 30, st(mdt.Free)},
			[3]float64{base + 60, 4, st(mdt.Free)},
			[3]float64{base + 120, 3, st(mdt.Free)},
			[3]float64{base + 180, 2, st(mdt.POB)},
			[3]float64{base + 240, 30, st(mdt.POB)},
			[3]float64{base + 600, 2, st(mdt.Payment)},
			[3]float64{base + 640, 1, st(mdt.Free)},
			[3]float64{base + 700, 30, st(mdt.Free)},
		)
		base += 900
	}
	got := ExtractPickups(traj(steps...), 10)
	if len(got) != 3 {
		t.Fatalf("extracted %d pickups, want 3", len(got))
	}
}

func TestPEAEmptyAndTinyTrajectories(t *testing.T) {
	if got := ExtractPickups(nil, 10); len(got) != 0 {
		t.Fatal("nil trajectory extracted something")
	}
	one := traj([3]float64{0, 3, st(mdt.Free)})
	if got := ExtractPickups(one, 10); len(got) != 0 {
		t.Fatal("single record extracted something")
	}
}

func TestPEAThresholdBoundary(t *testing.T) {
	// Speeds exactly at the threshold count as low (<= η_sp).
	tr := traj(
		[3]float64{0, 10, st(mdt.Free)},
		[3]float64{60, 10, st(mdt.Free)},
		[3]float64{120, 10, st(mdt.POB)},
		[3]float64{180, 10.1, st(mdt.POB)},
	)
	got := ExtractPickups(tr, 10)
	if len(got) != 1 {
		t.Fatalf("boundary speeds mishandled: %d pickups", len(got))
	}
}

func TestPEADefaultThreshold(t *testing.T) {
	tr := traj(
		[3]float64{0, 5, st(mdt.Free)},
		[3]float64{60, 5, st(mdt.Free)},
		[3]float64{120, 5, st(mdt.POB)},
		[3]float64{180, 40, st(mdt.POB)},
	)
	if got := ExtractPickups(tr, 0); len(got) != 1 {
		t.Fatal("zero threshold did not default to 10 km/h")
	}
}

func TestPEABusyPickupExtractedButNoWait(t *testing.T) {
	// §7.2: BUSY crawl then POB is extracted by PEA (BUSY is not
	// non-operational) but WTE finds no wait start.
	tr := traj(
		[3]float64{0, 4, st(mdt.Busy)},
		[3]float64{60, 3, st(mdt.Busy)},
		[3]float64{120, 2, st(mdt.POB)},
		[3]float64{180, 30, st(mdt.POB)},
	)
	got := ExtractPickups(tr, 10)
	if len(got) != 1 {
		t.Fatalf("BUSY pickup not extracted: %d", len(got))
	}
	if got[0].HasWait {
		t.Fatal("WTE produced a wait for a BUSY-only pickup")
	}
	if !got[0].Busy || got[0].EndState != mdt.POB || got[0].End != t0.Add(120*time.Second) {
		t.Fatalf("BUSY pickup summarised as %+v", got[0])
	}
}

func TestExtractAllDeterministic(t *testing.T) {
	// Each taxi's run ends at its own time, which names the taxi in the
	// output: A at +120 s, B at +1120 s, C at +2120 s.
	byTaxi := map[string]mdt.Trajectory{}
	for k, id := range []string{"C", "A", "B"} {
		tr := traj(
			[3]float64{0, 4, st(mdt.Free)},
			[3]float64{60, 3, st(mdt.Free)},
			[3]float64{120, 2, st(mdt.POB)},
			[3]float64{180, 30, st(mdt.POB)},
		)
		for i := range tr {
			tr[i].TaxiID = id
			tr[i].Time = tr[i].Time.Add(time.Duration((k+2)%3) * 1000 * time.Second)
		}
		byTaxi[id] = tr
	}
	a := ExtractAll(byTaxi, 10)
	b := ExtractAll(byTaxi, 10)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("extraction counts: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("ExtractAll order not deterministic")
		}
		if want := t0.Add(time.Duration(1000*i+120) * time.Second); !a[i].End.Equal(want) {
			t.Fatalf("ExtractAll not sorted by taxi ID: pickup %d ends at %v, want %v", i, a[i].End, want)
		}
	}
}
