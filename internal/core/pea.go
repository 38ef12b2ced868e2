// Package core implements the paper's queue analytic engine: the Pickup
// Extraction Algorithm (Algorithm 1), queue-spot detection by density
// clustering of pickup locations (§4.3), the Wait Time Extraction algorithm
// (Algorithm 2), the per-slot 5-tuple pickup-event features (§5.2), and the
// Queue Context Disambiguation algorithm (Algorithm 3), tied together by
// the two-tier Engine (§3).
package core

import (
	"sort"
	"time"

	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
)

// DefaultSpeedThresholdKmh is the paper's PEA speed threshold η_sp
// (§6.1.2: 10 km/h).
const DefaultSpeedThresholdKmh = 10

// Pickup is one slow pickup event extracted by PEA, summarised when PEA
// commits its sub-trajectory Rᵏ. The run itself is not kept: a pickup
// carries what the later stages read from it.
type Pickup struct {
	// Centroid is the run's central GPS location: the mean of its member
	// coordinates (§4.3), summed in geo.Centroid's order.
	Centroid geo.Point
	// Wait is the run's Algorithm 2 wait, valid when HasWait.
	Wait Wait
	// End is the time of the run's last record.
	End     time.Time
	HasWait bool // WTE found a (start, end) pair in the run
	// EndState is the state of the run's last record, and Busy reports
	// whether the run holds a BUSY record: the two facts the §7.2
	// cherry-picking count reads.
	EndState mdt.State
	Busy     bool
}

// PEA is the Pickup Extraction Algorithm (Algorithm 1) as a state machine
// for one taxi: the σ1/σ2 flags and the open low-speed run Rᵏ carried from
// one record to the next. Step scans the taxi's time-ordered records one
// at a time and reports the slow pickup events of the sub-trajectory set
// ω: runs of at least two consecutive records at or below the speed
// threshold that
//
//   - contain no non-operational state (BREAK/OFFLINE/POWEROFF resets the
//     scan),
//   - do not start occupied and end unoccupied (a passenger-alight event),
//   - do not start FREE and end ONCALL (the taxi left for a booking job
//     elsewhere), and
//   - change state at least once (filters traffic jams and red lights).
//
// A run is delimited by the next record above the threshold; a run still
// open when the records stop is never reported, exactly as in the paper's
// loop. The batch engine runs one PEA per taxi over the time-ordered day,
// the online engine one per live taxi. The zero value is ready to use.
type PEA struct {
	run      mdt.Trajectory // Rᵏ
	sigma1   bool           // one low-speed record seen
	sigma2   bool           // collecting (>= two consecutive low-speed records)
	prev     mdt.Record
	havePrev bool
}

// Step feeds the taxi's next record through Algorithm 1 and returns the
// pickup it completes, if any. speedThresholdKmh <= 0 selects
// DefaultSpeedThresholdKmh.
func (st *PEA) Step(p mdt.Record, speedThresholdKmh float64) (Pickup, bool) {
	pk, _, ok := st.step(p, speedThresholdKmh)
	return pk, ok
}

// step is Step that also returns the committed run Rᵏ. The run is the
// PEA's own buffer: it is valid only until the next call.
func (st *PEA) step(p mdt.Record, speedThresholdKmh float64) (Pickup, mdt.Trajectory, bool) {
	if p.State.NonOperational() {
		st.reset()
		st.havePrev = false
		return Pickup{}, nil, false
	}
	if speedThresholdKmh <= 0 {
		speedThresholdKmh = DefaultSpeedThresholdKmh
	}
	var pk Pickup
	var run mdt.Trajectory
	committed := false
	low := p.Speed <= speedThresholdKmh
	switch {
	case low && !st.sigma1:
		st.sigma1 = true
	case low && st.sigma1 && !st.sigma2:
		// Second consecutive low-speed record: open the run with the
		// previous record and this one (Algorithm 1 line 7).
		if st.havePrev {
			st.run = append(st.run, st.prev)
		}
		st.run = append(st.run, p)
		st.sigma2 = true
	case low && st.sigma2:
		st.run = append(st.run, p)
	case !low && st.sigma1 && !st.sigma2:
		st.sigma1 = false
	case !low && st.sigma2:
		if pk, committed = commitRun(st.run); committed {
			run = st.run
		}
		st.reset()
	}
	st.prev = p
	st.havePrev = true
	return pk, run, committed
}

func (st *PEA) reset() {
	st.run = st.run[:0]
	st.sigma1, st.sigma2 = false, false
}

// ExtractPickups runs Algorithm 1 over one taxi's time-ordered trajectory
// and returns its slow pickup events in order (see PEA).
func ExtractPickups(tr mdt.Trajectory, speedThresholdKmh float64) []Pickup {
	var st PEA
	var out []Pickup
	for _, p := range tr {
		if pk, ok := st.Step(p, speedThresholdKmh); ok {
			out = append(out, pk)
		}
	}
	return out
}

// commitRun applies Algorithm 1's three state-transition constraints to a
// completed low-speed run and, if it qualifies, summarises it into a
// Pickup without copying it.
func commitRun(run mdt.Trajectory) (Pickup, bool) {
	if len(run) < 2 {
		return Pickup{}, false
	}
	start, end := run[0].State, run[len(run)-1].State
	// Constraint 1: passenger-alight events (occupied -> unoccupied).
	if start.Occupied() && end.Unoccupied() {
		return Pickup{}, false
	}
	// Constraint 2: the taxi left for a booking job at another location.
	if start == mdt.Free && end == mdt.OnCall {
		return Pickup{}, false
	}
	// Constraint 3: at least one state transition (filters jams/red lights).
	changed := false
	for i := 1; i < len(run); i++ {
		if run[i].State != run[i-1].State {
			changed = true
			break
		}
	}
	if !changed {
		return Pickup{}, false
	}
	last := run[len(run)-1]
	pk := Pickup{End: last.Time, EndState: last.State}
	var lat, lon float64
	for i := range run {
		lat += run[i].Pos.Lat
		lon += run[i].Pos.Lon
		pk.Busy = pk.Busy || run[i].State == mdt.Busy
	}
	n := float64(len(run))
	pk.Centroid = geo.Point{Lat: lat / n, Lon: lon / n}
	pk.Wait, pk.HasWait = ExtractWait(run)
	return pk, true
}

// extractDay is Algorithm 1 over a whole day in one pass: recs, time-ordered
// per taxi, is walked once in order with one PEA per taxi. It returns
// exactly ExtractAll(mdt.SplitByTaxi(recs), speedThresholdKmh) — each
// taxi's pickups in time order, taxis in ascending ID order — without
// building SplitByTaxi's per-taxi copy of the day.
func extractDay(recs []mdt.Record, speedThresholdKmh float64) []Pickup {
	type taxi struct {
		id      string
		pea     PEA
		pickups []Pickup
	}
	byID := make(map[string]*taxi)
	var taxis []*taxi
	total := 0
	for i := range recs {
		t := byID[recs[i].TaxiID]
		if t == nil {
			t = &taxi{id: recs[i].TaxiID}
			byID[t.id] = t
			taxis = append(taxis, t)
		}
		if pk, ok := t.pea.Step(recs[i], speedThresholdKmh); ok {
			t.pickups = append(t.pickups, pk)
			total++
		}
	}
	sort.Slice(taxis, func(a, b int) bool { return taxis[a].id < taxis[b].id })
	out := make([]Pickup, 0, total)
	for _, t := range taxis {
		out = append(out, t.pickups...)
	}
	return out
}

// ExtractAll runs PEA over every taxi's trajectory and returns the combined
// multi-taxi pickup set W (Definition 4), flattened in ascending taxi-ID
// order so downstream clustering is deterministic.
func ExtractAll(byTaxi map[string]mdt.Trajectory, speedThresholdKmh float64) []Pickup {
	return extractAllSeq(byTaxi, sortedTaxiIDs(byTaxi), speedThresholdKmh)
}

// sortedTaxiIDs returns byTaxi's keys in ascending order.
func sortedTaxiIDs(byTaxi map[string]mdt.Trajectory) []string {
	ids := make([]string, 0, len(byTaxi))
	for id := range byTaxi {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// extractAllSeq is the sequential PEA loop over a pre-sorted ID list, shared
// by ExtractAll and ExtractAllParallel's small-input fallback.
func extractAllSeq(byTaxi map[string]mdt.Trajectory, ids []string, speedThresholdKmh float64) []Pickup {
	var out []Pickup
	for _, id := range ids {
		out = append(out, ExtractPickups(byTaxi[id], speedThresholdKmh)...)
	}
	return out
}
