package core

import (
	"sort"
	"time"
)

// SlotFeatures is the 5-tuple φ(r)ʲ of §5.2 describing one time slot at one
// queue spot, plus bookkeeping used by threshold selection.
type SlotFeatures struct {
	// TWait is t̄wait: the mean street-job wait time over the slot.
	TWait time.Duration
	// NArr is N_arr: the number of FREE-taxi arrivals (street-job waits
	// whose Start falls in the slot), after amplification.
	NArr float64
	// QLen is L̄: the Little's-Law FREE-taxi queue length estimate
	// t̄wait · λ̄ where λ̄ = N_arr / slot length.
	QLen float64
	// TDep is t̄dep: the mean interval between consecutive departures
	// (street + booking) in the slot, after amplification.
	TDep time.Duration
	// NDep is N_dep: the number of departures in the slot, after
	// amplification.
	NDep float64
	// StreetDepartures/BookingDepartures split NDep's raw counts by job
	// kind (needed for the zone street-job ratio τ_ratio).
	StreetDepartures  int
	BookingDepartures int
}

// Amplification holds the §6.2.1 dataset-coverage correction: the operator
// feed covers only a fraction of the fleet, so count features are scaled up
// by Factor = 1/coverage and the departure interval down by coverage.
type Amplification struct {
	// Factor multiplies N_arr, L̄ and N_dep (1.667 in the paper).
	Factor float64
	// IntervalFactor multiplies t̄dep (0.6 in the paper).
	IntervalFactor float64
}

// PaperAmplification is the §6.2.1 setting for a 60%-coverage dataset.
var PaperAmplification = Amplification{Factor: 1.667, IntervalFactor: 0.6}

// NoAmplification leaves features unscaled (full-coverage datasets).
var NoAmplification = Amplification{Factor: 1, IntervalFactor: 1}

// DefaultSlotLength is the paper's slot size: 48 slots of 1800 s per day
// (§6.2.1).
const DefaultSlotLength = 30 * time.Minute

// SlotGrid fixes the time-slot partition [start, start+L·slotLen).
type SlotGrid struct {
	Start   time.Time
	SlotLen time.Duration
	Slots   int
}

// DaySlots returns the paper's 48×30-minute grid for the day beginning at
// midnight t.
func DaySlots(midnight time.Time) SlotGrid {
	return SlotGrid{Start: midnight, SlotLen: DefaultSlotLength, Slots: 48}
}

// DayLen is the span the grid covers, Slots·SlotLen: one day index of a
// multi-day layout.
func (g SlotGrid) DayLen() time.Duration { return time.Duration(g.Slots) * g.SlotLen }

// End returns the first instant after the last slot.
func (g SlotGrid) End() time.Time { return g.Start.Add(g.DayLen()) }

// Index returns the slot index for t, or -1 when t is outside the grid.
func (g SlotGrid) Index(t time.Time) int {
	if t.Before(g.Start) {
		return -1
	}
	j := int(t.Sub(g.Start) / g.SlotLen)
	if j >= g.Slots {
		return -1
	}
	return j
}

// Bounds returns slot j's [from, to) interval.
func (g SlotGrid) Bounds(j int) (from, to time.Time) {
	from = g.TimeOf(0, j)
	return from, from.Add(g.SlotLen)
}

// TimeOf returns the start instant of (day, slot) when the grid repeats
// day after day: day d, slot j begins at Start + d·DayLen + j·SlotLen.
func (g SlotGrid) TimeOf(day, slot int) time.Time {
	return g.Start.Add(time.Duration(day)*g.DayLen() + time.Duration(slot)*g.SlotLen)
}

// Locate maps t onto the repeating grid's (day, slot); ok is false before
// Start. Days past the first are fine.
func (g SlotGrid) Locate(t time.Time) (day, slot int, ok bool) {
	d := t.Sub(g.Start)
	if d < 0 {
		return 0, 0, false
	}
	dayLen := g.DayLen()
	return int(d / dayLen), int((d % dayLen) / g.SlotLen), true
}

// SlotStats is the raw accumulator behind one (spot, slot) cell: every
// field is a sum or a concatenation, so the SlotStats of engines that each
// saw part of the fleet merge exactly, and Features over the merge equals
// Features over one accumulator that saw every wait. The batch
// ComputeFeatures and the live engine both build cells through it.
type SlotStats struct {
	// WaitSum/WaitN accumulate street waits that started in this slot.
	WaitSum time.Duration
	WaitN   int
	// Street/Booking count departures (wait ends) in this slot by job kind.
	Street  int
	Booking int
	// DepEnds are the departure instants in this slot, in fold order.
	DepEnds []time.Time
}

// AddArrival folds a wait that started in this slot into the arrival
// statistics. Only street waits are FREE-taxi arrivals (§5.2); a booking
// wait is ignored.
func (s *SlotStats) AddArrival(w Wait) {
	if w.Street() {
		s.WaitSum += w.Duration()
		s.WaitN++
	}
}

// AddDeparture folds a wait that ended in this slot into the departure
// statistics.
func (s *SlotStats) AddDeparture(w Wait) {
	if w.Street() {
		s.Street++
	} else {
		s.Booking++
	}
	s.DepEnds = append(s.DepEnds, w.End)
}

// Empty reports whether the cell saw no activity.
func (s *SlotStats) Empty() bool { return s.WaitN == 0 && len(s.DepEnds) == 0 }

// Merge folds o into s. Merging is commutative up to DepEnds order, which
// Features re-sorts, so merge order never changes the outcome.
func (s *SlotStats) Merge(o *SlotStats) {
	s.WaitSum += o.WaitSum
	s.WaitN += o.WaitN
	s.Street += o.Street
	s.Booking += o.Booking
	s.DepEnds = append(s.DepEnds, o.DepEnds...)
}

// Features converts the raw statistics into the §5.2 5-tuple. DepEnds is
// sorted in place. An empty accumulator yields the zero 5-tuple.
func (s *SlotStats) Features(slotLen time.Duration, amp Amplification) SlotFeatures {
	if amp.Factor == 0 {
		amp = NoAmplification
	}
	var f SlotFeatures
	if s.WaitN > 0 {
		f.TWait = s.WaitSum / time.Duration(s.WaitN)
	}
	f.NArr = float64(s.WaitN) * amp.Factor
	// L̄ = t̄wait·λ̄ with λ̄ = N_arr/slot length, grouped exactly so.
	f.QLen = f.TWait.Seconds() * (f.NArr / slotLen.Seconds())
	deps := s.DepEnds
	sort.Slice(deps, func(a, b int) bool { return deps[a].Before(deps[b]) })
	if len(deps) > 1 {
		total := deps[len(deps)-1].Sub(deps[0])
		mean := total / time.Duration(len(deps)-1)
		f.TDep = time.Duration(float64(mean) * amp.IntervalFactor)
	}
	f.NDep = float64(len(deps)) * amp.Factor
	f.StreetDepartures = s.Street
	f.BookingDepartures = s.Booking
	return f
}

// ComputeFeatures derives the per-slot 5-tuples Ω(r) from a spot's wait set
// Y(r). Street-job waits provide the arrival features; all departures
// provide the departure features, matching §5.2 exactly: each wait folds
// into the SlotStats of its start slot (arrival) and of its end slot
// (departure).
func ComputeFeatures(waits []Wait, grid SlotGrid, amp Amplification) []SlotFeatures {
	stats := make([]SlotStats, grid.Slots)
	for _, w := range waits {
		if j := grid.Index(w.Start); j >= 0 {
			stats[j].AddArrival(w)
		}
		if j := grid.Index(w.End); j >= 0 {
			stats[j].AddDeparture(w)
		}
	}
	feats := make([]SlotFeatures, grid.Slots)
	for j := range stats {
		feats[j] = stats[j].Features(grid.SlotLen, amp)
	}
	return feats
}
