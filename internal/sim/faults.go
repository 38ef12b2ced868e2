package sim

import (
	"math/rand"

	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
)

// Fault-injection rates per record, chosen so the erroneous share of the
// dataset lands near the paper's 2.8% (§6.1.1):
//   - duplicate GPRS retransmissions     ~1.5%
//   - improper states (FREE between two PAYMENTs, the clock-sync bug)
//     ~0.3%
//   - GPS coordinates outside Singapore (urban-canyon outliers) ~1.0%
const (
	dupRate      = 0.016
	improperRate = 0.003
	gpsRate      = 0.011
)

// insertion is one record that fault injection expands in place: a
// duplicate retransmission (r, r) or an improper FREE (r, FREE, r).
type insertion struct {
	at       int
	improper bool
}

// injectFaults rewrites recs with the §6.1.1 error modes and returns the
// new slice plus the count of injected erroneous records. Time order is
// preserved: duplicates and improper-state records are inserted adjacent
// to their source record; GPS outliers modify a record in place.
//
// The rewrite happens in recs' own array when its capacity allows. A
// forward pass draws every decision from rng in record order and applies
// the GPS outliers; a backward pass then moves each record to its final
// index, from the end, writing the inserted records as it goes.
func injectFaults(rng *rand.Rand, recs []mdt.Record) ([]mdt.Record, int) {
	var ins []insertion
	injected, extra := 0, 0
	for i := range recs {
		r := &recs[i]
		u := rng.Float64()
		switch {
		case u < gpsRate:
			// Urban-canyon outlier: throw the fix far outside the island
			// (sea or Malaysia) or an inaccessible zone.
			r.Pos = geo.Point{
				Lat: citymapIslandMinLat - 0.3 - rng.Float64(),
				Lon: r.Pos.Lon + rng.Float64()*2 - 1,
			}
			injected++
		case u < gpsRate+dupRate:
			// GPRS retransmission: the identical record appears twice.
			ins = append(ins, insertion{at: i})
			injected++
			extra++
		case u < gpsRate+dupRate+improperRate && r.State == mdt.Payment:
			// Old-MDT clock-sync bug: a spurious FREE sandwiched between
			// two PAYMENT records.
			ins = append(ins, insertion{at: i, improper: true})
			injected += 2
			extra += 2
		}
	}
	src, dst := len(recs), len(recs)+extra
	if dst > cap(recs) {
		grown := make([]mdt.Record, len(recs), dst)
		copy(grown, recs)
		recs = grown
	}
	recs = recs[:dst]
	for k := len(ins) - 1; k >= 0; k-- {
		in := ins[k]
		n := src - in.at - 1
		dst -= n
		copy(recs[dst:dst+n], recs[in.at+1:src])
		r := recs[in.at]
		if in.improper {
			spurious := r
			spurious.State = mdt.Free
			dst -= 3
			recs[dst], recs[dst+1], recs[dst+2] = r, spurious, r
		} else {
			dst -= 2
			recs[dst], recs[dst+1] = r, r
		}
		src = in.at
	}
	return recs, injected
}

// citymapIslandMinLat mirrors citymap.Island.MinLat without importing the
// package into this tiny helper (keeps the fault injector reusable on raw
// record streams in tests).
const citymapIslandMinLat = 1.220
