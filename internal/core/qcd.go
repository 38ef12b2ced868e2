package core

import (
	"fmt"
	"sort"
	"time"
)

// QueueType is one of the four queue contexts of Table 3, plus
// Unidentified for slots whose features are insignificant (§6.2.2).
type QueueType uint8

const (
	// Unidentified slots have features too weak for either QCD routine.
	Unidentified QueueType = iota
	// C1: taxi queue and passenger queue concurrently (supply and demand
	// both high).
	C1
	// C2: passenger queue only.
	C2
	// C3: taxi queue only.
	C3
	// C4: neither queue.
	C4
)

// String implements fmt.Stringer.
func (q QueueType) String() string {
	switch q {
	case C1:
		return "C1"
	case C2:
		return "C2"
	case C3:
		return "C3"
	case C4:
		return "C4"
	default:
		return "Unidentified"
	}
}

// Thresholds holds the six QCD parameters of Algorithm 3 for one queue
// spot. Different spots have different values (§5.3: a hospital differs
// from the airport).
type Thresholds struct {
	EtaWait  time.Duration // η_wait: short-wait reference
	EtaDep   time.Duration // η_dep: short departure-interval reference
	TauArr   float64       // τ_arr: arrival-count bar, slotLen/η_wait
	TauDep   float64       // τ_dep: departure-count bar, slotLen/η_dep
	EtaDur   time.Duration // η_dur: departure-span bar (90% of slot)
	TauRatio float64       // τ_ratio: zone/day street-job share
}

// String implements fmt.Stringer.
func (t Thresholds) String() string {
	return fmt.Sprintf("η_wait=%v τ_arr=%.1f η_dep=%v τ_dep=%.1f η_dur=%v τ_ratio=%.2f",
		t.EtaWait.Round(time.Second), t.TauArr, t.EtaDep.Round(time.Second),
		t.TauDep, t.EtaDur, t.TauRatio)
}

// shortestFractionMean returns the mean of the smallest frac (0..1) of ds;
// zero when ds is empty.
func shortestFractionMean(ds []time.Duration, frac float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := int(float64(len(sorted))*frac + 0.999)
	if n < 1 {
		n = 1
	}
	if n > len(sorted) {
		n = len(sorted)
	}
	var sum time.Duration
	for _, d := range sorted[:n] {
		sum += d
	}
	return sum / time.Duration(n)
}

// minEta floors degenerate threshold estimates: with very little activity
// the top-20% mean can collapse to near zero, which would make τ explode.
const minEta = 20 * time.Second

// SelectThresholds implements the §6.2.1 recipe. The "wait time values" and
// "departure intervals" it ranks are the slot-level averages defined in
// §5.2 — t̄wait(r)ʲ and t̄dep(r)ʲ — computed from the raw (unamplified)
// observed feed: η_wait is the mean of the 20% smallest nonzero per-slot
// average waits, η_dep the mean of the 20% smallest nonzero per-slot
// average departure intervals ("which can commonly depict taxi wait and
// departure events when the passenger queue exists"). τ_arr and τ_dep are
// slotLen/η; η_dur is 90% of the slot; τ_ratio is the zone/day street-job
// share supplied by the caller.
//
// Pass the features computed with NoAmplification: thresholds calibrate on
// what the partial feed actually recorded, and the amplified features are
// then compared against them (this interplay is what makes the saturation
// bars τ_arr/τ_dep reachable at all; see EXPERIMENTS.md).
func SelectThresholds(rawFeats []SlotFeatures, grid SlotGrid, streetRatio float64) Thresholds {
	var slotWaits, slotIntervals []time.Duration
	for _, f := range rawFeats {
		if f.TWait > 0 {
			slotWaits = append(slotWaits, f.TWait)
		}
		if f.TDep > 0 {
			slotIntervals = append(slotIntervals, f.TDep)
		}
	}
	etaWait := shortestFractionMean(slotWaits, 0.20)
	if etaWait < minEta {
		etaWait = minEta
	}
	etaDep := shortestFractionMean(slotIntervals, 0.20)
	if etaDep < minEta {
		etaDep = minEta
	}
	slotSec := grid.SlotLen.Seconds()
	return Thresholds{
		EtaWait:  etaWait,
		EtaDep:   etaDep,
		TauArr:   slotSec / etaWait.Seconds(),
		TauDep:   slotSec / etaDep.Seconds(),
		EtaDur:   time.Duration(0.9 * float64(grid.SlotLen)),
		TauRatio: streetRatio,
	}
}

// Classify is the Queue Context Disambiguation algorithm (Algorithm 3):
// given the per-slot 5-tuples Ω(r) and the spot's thresholds, it labels
// every slot C1..C4 or Unidentified.
//
// Routine 1 splits on the Little's-Law queue length L̄: without a taxi
// queue (L̄ < 1), many arrivals with short waits mean passengers are
// consuming taxis (C2) while few arrivals with long waits mean nobody is
// (C4). With a taxi queue (L̄ ≥ 1), many closely spaced departures mean
// passengers are draining the line (C1) while few, widely spaced departures
// mean the line just sits (C3).
//
// Routine 2 rescues unlabeled slots using the booking share: when
// departures span most of the slot and the FREE-arrival/departure ratio is
// below the zone norm, a large portion of departures are ONCALL taxis —
// passengers are struggling to hail (C1 or C2 by L̄).
func Classify(feats []SlotFeatures, th Thresholds) []QueueType {
	labels := make([]QueueType, len(feats))
	for j := range feats {
		labels[j] = ClassifyCell(feats[j], th)
	}
	return labels
}

// ClassifyCell runs Algorithm 3 on one slot's 5-tuple. Both routines look
// only at the slot's own features, so Classify is ClassifyCell per slot;
// batch, live, history and forecast all label a cell through it. An empty
// slot's label is ClassifyCell(SlotFeatures{}, th).
func ClassifyCell(f SlotFeatures, th Thresholds) QueueType {
	// Routine 1.
	if f.QLen < 1 {
		if f.NArr >= th.TauArr && f.TWait < th.EtaWait {
			return C2
		}
		if f.NArr < th.TauArr && f.TWait >= th.EtaWait {
			return C4
		}
	} else {
		if f.NDep >= th.TauDep && f.TDep < th.EtaDep {
			return C1
		}
		if f.NDep < th.TauDep && f.TDep >= th.EtaDep {
			return C3
		}
	}
	// Routine 2.
	if f.NDep == 0 {
		return Unidentified
	}
	span := time.Duration(f.NDep * float64(f.TDep))
	if span > th.EtaDur && f.NArr/f.NDep < th.TauRatio {
		if f.QLen >= 1 {
			return C1
		}
		return C2
	}
	return Unidentified
}

// Proportions tallies label shares across any number of label slices
// (the Table 7 computation).
func Proportions(labelSets ...[]QueueType) map[QueueType]float64 {
	counts := map[QueueType]int{}
	total := 0
	for _, set := range labelSets {
		for _, l := range set {
			counts[l]++
			total++
		}
	}
	out := make(map[QueueType]float64, len(counts))
	if total == 0 {
		return out
	}
	for l, n := range counts {
		out[l] = float64(n) / float64(total)
	}
	return out
}
