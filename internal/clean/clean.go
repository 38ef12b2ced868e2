// Package clean implements the §6.1.1 data-preprocessing pipeline for raw
// MDT logs. The paper identifies three main error classes in the operator
// feed and removes them (~2.8% of all records):
//
//  1. improper/missing taxi states — notably a spurious FREE sandwiched
//     between two PAYMENT records (an old-MDT clock-sync bug);
//  2. record duplication — GPRS retransmissions between the MDT and the
//     backend;
//  3. GPS coordinates outside Singapore or in inaccessible zones — the
//     urban-canyon effect.
//
// Clean operates per taxi on time-ordered records and reports per-class
// removal statistics.
package clean

import (
	"fmt"

	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
)

// Stats reports what the cleaning pass removed.
type Stats struct {
	Input          int // records in
	Duplicates     int // exact re-transmissions removed
	ImproperStates int // clock-sync FREE-between-PAYMENT records removed
	GPSOutliers    int // fixes outside the valid frame removed
	Output         int // records out
}

// Removed returns the total number of removed records.
func (s Stats) Removed() int { return s.Duplicates + s.ImproperStates + s.GPSOutliers }

// Rate returns the removed fraction of the input (the paper reports ~2.8%).
func (s Stats) Rate() float64 {
	if s.Input == 0 {
		return 0
	}
	return float64(s.Removed()) / float64(s.Input)
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("clean: in=%d out=%d removed=%d (%.2f%%) [dup=%d improper=%d gps=%d]",
		s.Input, s.Output, s.Removed(), s.Rate()*100, s.Duplicates, s.ImproperStates, s.GPSOutliers)
}

// Config parameterizes the pipeline.
type Config struct {
	// ValidFrame is the acceptable GPS bounding box; records outside it are
	// dropped. Required (there is no sensible global default).
	ValidFrame geo.Rect
}

// Clean runs the full pipeline over time-ordered records (any taxi mix) and
// returns the surviving records, preserving order exactly. The input slice
// is not modified.
func Clean(recs []mdt.Record, cfg Config) ([]mdt.Record, Stats) {
	drop, stats := mark(recs, cfg)
	out := make([]mdt.Record, 0, stats.Output)
	for i := range recs {
		if !drop[i] {
			out = append(out, recs[i])
		}
	}
	return out, stats
}

// Compact is Clean for a caller that owns recs and has no further use for
// the raw records: it returns the same records, in the same order, with the
// same Stats, but moves them to the front of recs instead of copying them.
// The result is a prefix of recs; the rest of recs is zeroed. A caller
// that reads recs again after cleaning must use Clean.
func Compact(recs []mdt.Record, cfg Config) ([]mdt.Record, Stats) {
	drop, stats := mark(recs, cfg)
	n := 0
	for i := range recs {
		if !drop[i] {
			recs[n] = recs[i]
			n++
		}
	}
	clear(recs[n:])
	return recs[:n], stats
}

// mark decides each record's fate without moving any: drop[i] reports
// whether recs[i] is removed, and the returned Stats count each class.
// Because nothing moves, global time order is preserved by construction.
// "Pending" FREE records that follow a PAYMENT are marked retroactively
// when a second PAYMENT proves them to be the clock-sync bug.
func mark(recs []mdt.Record, cfg Config) ([]bool, Stats) {
	stats := Stats{Input: len(recs)}
	drop := make([]bool, len(recs))

	// Per-taxi trailing context for duplicate and improper-state checks.
	type tail struct {
		lastIdx  int // index of this taxi's previous surviving record
		hasLast  bool
		pendFree []int // indexes of FREEs held while we look for PAYMENT-FREE-PAYMENT
		afterPay bool  // lastIdx record (with pendFree empty) is a PAYMENT
	}
	tails := make(map[string]*tail)

	for i := range recs {
		r := &recs[i]
		// GPS bounds filter first: an out-of-frame fix is garbage whatever
		// its state says.
		if !cfg.ValidFrame.Contains(r.Pos) || !r.Pos.Valid() {
			drop[i] = true
			stats.GPSOutliers++
			continue
		}
		t := tails[r.TaxiID]
		if t == nil {
			t = &tail{}
			tails[r.TaxiID] = t
		}
		// Improper state: FREE record(s) sandwiched between two PAYMENTs.
		// Track FREEs that directly follow a PAYMENT; if the next
		// non-FREE record is PAYMENT again, they were the clock-sync bug.
		if len(t.pendFree) > 0 || t.afterPay {
			if r.State == mdt.Free {
				// Duplicate of the held tail?
				if n := len(t.pendFree); n > 0 && r.Equal(recs[t.pendFree[n-1]]) {
					drop[i] = true
					stats.Duplicates++
					continue
				}
				t.pendFree = append(t.pendFree, i)
				continue
			}
			if r.State == mdt.Payment && len(t.pendFree) > 0 {
				for _, j := range t.pendFree {
					drop[j] = true
				}
				stats.ImproperStates += len(t.pendFree)
				t.pendFree = t.pendFree[:0]
			} else if len(t.pendFree) > 0 {
				// The held FREEs were a legitimate dropoff; they stay
				// (already in place) and the newest becomes the duplicate
				// reference.
				t.lastIdx = t.pendFree[len(t.pendFree)-1]
				t.hasLast = true
				t.pendFree = t.pendFree[:0]
			}
		}
		// Duplicate: identical to this taxi's previous surviving record.
		if t.hasLast && r.Equal(recs[t.lastIdx]) {
			drop[i] = true
			stats.Duplicates++
			continue
		}
		t.lastIdx = i
		t.hasLast = true
		t.afterPay = r.State == mdt.Payment
	}
	stats.Output = stats.Input - stats.Removed()
	return drop, stats
}
