package sim

import (
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/mdt"
)

// LenSample is one change of a ground-truth queue length.
type LenSample struct {
	Time time.Time
	Len  int
}

// SpotTruth is the simulator's ground truth for one landmark's queue spot:
// what the detection and disambiguation results should be validated
// against.
type SpotTruth struct {
	Landmark citymap.Landmark
	// TaxiQueueLog records every change of (queued + boarding) taxi count:
	// exactly what the vehicle monitor's camera would see in the stand
	// polygon.
	TaxiQueueLog []LenSample
	// PaxQueueLog records every change of the waiting-passenger count.
	PaxQueueLog []LenSample
	// Pickups counts passengers picked up at the spot (street + booking).
	Pickups int
	// BusyPickups counts §7.2 BUSY-state cherry-picking pickups.
	BusyPickups int
	// FailedBookings are the timestamps of failed bookings at this spot.
	FailedBookings []time.Time
	// TaxiWaitTotal/TaxiWaitCount accumulate true taxi queue waits.
	TaxiWaitTotal time.Duration
	TaxiWaitCount int
	// PaxWaitTotal/PaxWaitCount accumulate true passenger waits.
	PaxWaitTotal time.Duration
	PaxWaitCount int
}

// AvgTaxiQueueLen returns the time-weighted average (queued + boarding)
// taxi count over [from, to).
func (st *SpotTruth) AvgTaxiQueueLen(from, to time.Time) float64 {
	return avgFromLog(st.TaxiQueueLog, from, to)
}

// AvgPaxQueueLen returns the time-weighted average waiting-passenger count
// over [from, to).
func (st *SpotTruth) AvgPaxQueueLen(from, to time.Time) float64 {
	return avgFromLog(st.PaxQueueLog, from, to)
}

// FailedBookingCount counts failed bookings in [from, to).
func (st *SpotTruth) FailedBookingCount(from, to time.Time) int {
	n := 0
	for _, t := range st.FailedBookings {
		if !t.Before(from) && t.Before(to) {
			n++
		}
	}
	return n
}

func avgFromLog(log []LenSample, from, to time.Time) float64 {
	if !to.After(from) || len(log) == 0 {
		return 0
	}
	total := to.Sub(from).Seconds()
	cur := 0
	acc := 0.0
	prev := from
	for _, s := range log {
		if !s.Time.After(from) {
			cur = s.Len
			continue
		}
		if !s.Time.Before(to) {
			break
		}
		acc += float64(cur) * s.Time.Sub(prev).Seconds()
		prev = s.Time
		cur = s.Len
	}
	acc += float64(cur) * to.Sub(prev).Seconds()
	return acc / total
}

// Truth is the complete ground truth of a run.
type Truth struct {
	Spots []*SpotTruth
	// IllegalTransitions counts taxi state transitions that violate the
	// Fig. 3 diagram (must stay zero before fault injection).
	IllegalTransitions int
	failedBookings     int
	end                time.Time
}

func newTruth(city *citymap.Map) *Truth {
	t := &Truth{Spots: make([]*SpotTruth, len(city.Landmarks))}
	for i, lm := range city.Landmarks {
		t.Spots[i] = &SpotTruth{Landmark: lm}
	}
	return t
}

func (t *Truth) finish(end time.Time) { t.end = end }

func (t *Truth) taxiQueueChanged(sp *spot, at time.Time, n int) {
	st := t.Spots[sp.idx]
	st.TaxiQueueLog = append(st.TaxiQueueLog, LenSample{Time: at, Len: n})
}

func (t *Truth) paxQueueChanged(sp *spot, at time.Time, n int) {
	st := t.Spots[sp.idx]
	st.PaxQueueLog = append(st.PaxQueueLog, LenSample{Time: at, Len: n})
}

func (t *Truth) spotPickup(sp *spot)     { t.Spots[sp.idx].Pickups++ }
func (t *Truth) spotBusyPickup(sp *spot) { t.Spots[sp.idx].BusyPickups++ }
func (t *Truth) spotFailedBooking(sp *spot, at time.Time) {
	st := t.Spots[sp.idx]
	st.FailedBookings = append(st.FailedBookings, at)
}

func (t *Truth) taxiWait(sp *spot, d time.Duration) {
	st := t.Spots[sp.idx]
	st.TaxiWaitTotal += d
	st.TaxiWaitCount++
}

func (t *Truth) paxWait(sp *spot, d time.Duration) {
	st := t.Spots[sp.idx]
	st.PaxWaitTotal += d
	st.PaxWaitCount++
}

// transition audits every per-taxi state transition against the Fig. 3
// diagram; emit calls it for all records including unobserved taxis.
func (t *Truth) transition(from, to mdt.State) {
	if !mdt.LegalTransition(from, to) {
		t.IllegalTransitions++
	}
}
