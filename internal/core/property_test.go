package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
)

// randomTrajectory builds a random-but-legal-ish trajectory: random states,
// random speeds, increasing timestamps. It intentionally includes illegal
// state orders — PEA must be robust to dirty input.
func randomTrajectory(rng *rand.Rand, n int) mdt.Trajectory {
	tr := make(mdt.Trajectory, n)
	ts := time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)
	pos := geo.Point{Lat: 1.3, Lon: 103.8}
	for i := range tr {
		ts = ts.Add(time.Duration(10+rng.Intn(120)) * time.Second)
		pos = geo.Offset(pos, rng.NormFloat64()*200, rng.NormFloat64()*200)
		tr[i] = mdt.Record{
			Time:   ts,
			TaxiID: "SH0001A",
			Pos:    pos,
			Speed:  rng.Float64() * 60,
			State:  mdt.State(rng.Intn(mdt.NumStates)),
		}
	}
	return tr
}

// TestPEAInvariantsOnRandomInput checks the DESIGN.md §6 invariants on
// arbitrary input, over the runs production PEA commits: every run has
// >= 2 records, only low speeds, no non-operational states, at least one
// state transition, never starts occupied and ends unoccupied, and never
// FREE->ONCALL.
func TestPEAInvariantsOnRandomInput(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrajectory(rng, int(size))
		const eta = 10.0
		pickups, runs := extractRuns(tr, eta)
		for k, p := range pickups {
			sub := runs[k]
			if len(sub) < 2 {
				return false
			}
			changed := false
			for i, r := range sub {
				if r.Speed > eta {
					return false
				}
				if r.State.NonOperational() {
					return false
				}
				if i > 0 && r.State != sub[i-1].State {
					changed = true
				}
				if i > 0 && r.Time.Before(sub[i-1].Time) {
					return false
				}
			}
			if !changed {
				return false
			}
			start, end := sub[0].State, sub[len(sub)-1].State
			if start.Occupied() && end.Unoccupied() {
				return false
			}
			if start == mdt.Free && end == mdt.OnCall {
				return false
			}
			if p != summarise(sub) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestWTEInvariantsOnRandomInput: every extracted wait has End >= Start,
// StartState in {FREE, ONCALL, ARRIVED}, End at a POB record, and no
// PAYMENT record between Start and End.
func TestWTEInvariantsOnRandomInput(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrajectory(rng, int(size))
		w, ok := ExtractWait(tr)
		if !ok {
			return true
		}
		if w.End.Before(w.Start) {
			return false
		}
		switch w.StartState {
		case mdt.Free, mdt.OnCall, mdt.Arrived:
		default:
			return false
		}
		for _, r := range tr {
			if r.State == mdt.Payment && !r.Time.Before(w.Start) && r.Time.Before(w.End) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestFeatureInvariantsOnRandomWaits: features derived from arbitrary wait
// sets are non-negative, Little's identity holds, and departure counts
// match the wait-end slot assignment exactly.
func TestFeatureInvariantsOnRandomWaits(t *testing.T) {
	grid := DaySlots(time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC))
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var waits []Wait
		states := []mdt.State{mdt.Free, mdt.OnCall, mdt.Arrived}
		for i := 0; i < int(n); i++ {
			start := grid.Start.Add(time.Duration(rng.Int63n(int64(26 * time.Hour))))
			waits = append(waits, Wait{
				Start:      start,
				End:        start.Add(time.Duration(rng.Int63n(int64(30 * time.Minute)))),
				StartState: states[rng.Intn(3)],
			})
		}
		feats := ComputeFeatures(waits, grid, PaperAmplification)
		if len(feats) != grid.Slots {
			return false
		}
		slotSec := grid.SlotLen.Seconds()
		var totalDeps int
		for _, ft := range feats {
			if ft.TWait < 0 || ft.NArr < 0 || ft.QLen < 0 || ft.TDep < 0 || ft.NDep < 0 {
				return false
			}
			// Little's identity as implemented.
			want := ft.TWait.Seconds() * ft.NArr / slotSec
			if diff := ft.QLen - want; diff > 1e-9 || diff < -1e-9 {
				return false
			}
			totalDeps += ft.StreetDepartures + ft.BookingDepartures
		}
		// Every wait ending inside the grid is a departure exactly once.
		wantDeps := 0
		for _, w := range waits {
			if grid.Index(w.End) >= 0 {
				wantDeps++
			}
		}
		return totalDeps == wantDeps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestClassifyTotalOnRandomFeatures: Classify labels every slot with one of
// the five values and never panics on arbitrary feature values; each label
// is ClassifyCell of that slot alone, and ClassifyCell allocates nothing.
func TestClassifyTotalOnRandomFeatures(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		feats := make([]SlotFeatures, 48)
		for i := range feats {
			feats[i] = SlotFeatures{
				TWait: time.Duration(rng.Int63n(int64(30 * time.Minute))),
				NArr:  rng.Float64() * 100,
				QLen:  rng.Float64() * 20,
				TDep:  time.Duration(rng.Int63n(int64(10 * time.Minute))),
				NDep:  rng.Float64() * 100,
			}
		}
		th := Thresholds{
			EtaWait: time.Duration(1 + rng.Int63n(int64(5*time.Minute))),
			EtaDep:  time.Duration(1 + rng.Int63n(int64(5*time.Minute))),
			TauArr:  rng.Float64() * 100, TauDep: rng.Float64() * 100,
			EtaDur: 27 * time.Minute, TauRatio: rng.Float64(),
		}
		labels := Classify(feats, th)
		if len(labels) != len(feats) {
			return false
		}
		for j, l := range labels {
			switch l {
			case C1, C2, C3, C4, Unidentified:
			default:
				return false
			}
			if ClassifyCell(feats[j], th) != l {
				return false
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { ClassifyCell(feats[0], th) }); allocs != 0 {
			t.Errorf("ClassifyCell allocates %.0f times per call", allocs)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// summarise is what a pickup must carry of its run: the run's centroid
// (geo.Centroid), its Algorithm 2 wait, its last record's time and state,
// and whether it holds a BUSY record — computed from a copy of the run.
func summarise(run mdt.Trajectory) Pickup {
	pts := make([]geo.Point, len(run))
	busy := false
	for i, r := range run {
		pts[i] = r.Pos
		busy = busy || r.State == mdt.Busy
	}
	w, ok := ExtractWait(run)
	last := run[len(run)-1]
	return Pickup{Centroid: geo.Centroid(pts), Wait: w, HasWait: ok, End: last.Time, EndState: last.State, Busy: busy}
}

// TestPickupSummariesMatchRuns: on random days whose taxis' records
// interleave, every pickup equals the summary of a copy of the run its
// taxi's PEA committed: the summary is taken at commit, before the taxi's
// run buffer is reused.
func TestPickupSummariesMatchRuns(t *testing.T) {
	f := func(seed int64, taxis uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(taxis)%8
		trs := make([]mdt.Trajectory, n)
		for k := range trs {
			trs[k] = randomTrajectory(rng, 50+rng.Intn(150))
		}
		peas := make([]PEA, n)
		for left := n; left > 0; {
			k := rng.Intn(n)
			if len(trs[k]) == 0 {
				continue
			}
			r := trs[k][0]
			if trs[k] = trs[k][1:]; len(trs[k]) == 0 {
				left--
			}
			if pk, run, ok := peas[k].step(r, 10); ok && pk != summarise(append(mdt.Trajectory(nil), run...)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPEASubTrajectoriesDisjoint: the runs PEA commits never share a
// record.
func TestPEASubTrajectoriesDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 50; trial++ {
		tr := randomTrajectory(rng, 200)
		seen := map[time.Time]bool{}
		_, runs := extractRuns(tr, 10)
		for _, run := range runs {
			for _, r := range run {
				if seen[r.Time] {
					t.Fatal("two sub-trajectories share a record")
				}
				seen[r.Time] = true
			}
		}
	}
}
