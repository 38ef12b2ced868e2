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
	"unsafe"

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
// whether recs[i] is removed, and the returned Stats count each class. It
// drives the cleaner with record indexes, so nothing is copied, and because
// nothing moves, global time order is preserved by construction. Held
// FREEs that a second PAYMENT proves to be the clock-sync bug are marked
// retroactively; released or still held at the end, they stay in place.
func mark(recs []mdt.Record, cfg Config) ([]bool, Stats) {
	drop := make([]bool, len(recs))
	c := newCleaner(cfg, func(i *int) *mdt.Record { return &recs[*i] })
	for i := range recs {
		f, resolved, improper := c.step(&recs[i], i)
		drop[i] = f == outlier || f == duplicate
		if improper {
			for _, j := range resolved {
				drop[j] = true
			}
		}
	}
	c.end(nil)
	return drop, c.stats
}

// fate is what the cleaner decided about one record.
type fate uint8

const (
	survives  fate = iota // kept
	held                  // a FREE after a PAYMENT, undecided until a later record
	outlier               // removed: GPS fix outside the valid frame
	duplicate             // removed: an exact repeat
)

// cleaner is the three §6.1.1 rules as a state machine over one feed,
// time-ordered per taxi: step decides each record's fate from its taxi's
// trailing context. It is generic over the handle H its caller keeps for
// a record the rules may read again (the taxi's last survivor and its held
// FREEs): mark keeps an index into its slice, Streamer a held copy and its
// arrival number. at reads a handle's record back.
type cleaner[H any] struct {
	frame geo.Rect
	at    func(*H) *mdt.Record
	taxis map[string]*taxi[H]
	stats Stats
	held  int // FREEs held undecided, across taxis
}

// heldKeepBytes bounds the held array a taxi keeps for its next hold once
// its holds resolve: a larger one is let go, so that a taxi that once held
// a long FREE tail does not keep room for it while it holds nothing. It
// keeps 128 of mark's 8-byte indexes and 12 of Streamer's 80-byte copies,
// so short holds reuse their array.
const heldKeepBytes = 1 << 10

// taxi is one taxi's trailing context.
type taxi[H any] struct {
	last     H     // previous surviving record
	lastSec  int64 // its Unix second: a record of another second cannot repeat it
	held     []H   // FREEs held while we look for PAYMENT-FREE-PAYMENT
	hasLast  bool
	afterPay bool // last (with held empty) is a PAYMENT
}

// setLast makes h, read back through at, the taxi's previous survivor.
func (t *taxi[H]) setLast(at func(*H) *mdt.Record, h H) {
	t.last, t.hasLast = h, true
	t.lastSec = at(&t.last).Time.Unix()
}

func newCleaner[H any](cfg Config, at func(*H) *mdt.Record) *cleaner[H] {
	return &cleaner[H]{frame: cfg.ValidFrame, at: at, taxis: make(map[string]*taxi[H])}
}

// step decides the fate of r, whose handle is h, and counts it in stats. A
// record that settles its taxi's held FREEs also returns them as resolved:
// improper reports that a second PAYMENT proved them the clock-sync bug and
// they are removed; otherwise they survive, in arrival order, before r. The
// resolved slice is valid until the taxi's next step.
func (c *cleaner[H]) step(r *mdt.Record, h H) (f fate, resolved []H, improper bool) {
	c.stats.Input++
	// GPS bounds filter first: an out-of-frame fix is garbage whatever
	// its state says.
	if !c.frame.Contains(r.Pos) || !r.Pos.Valid() {
		c.stats.GPSOutliers++
		return outlier, nil, false
	}
	t := c.taxis[r.TaxiID]
	if t == nil {
		t = &taxi[H]{}
		c.taxis[r.TaxiID] = t
	}
	// Improper state: FREE record(s) sandwiched between two PAYMENTs.
	// Hold FREEs that directly follow a PAYMENT; if the next non-FREE
	// record is PAYMENT again, they were the clock-sync bug.
	if len(t.held) > 0 || t.afterPay {
		if r.State == mdt.Free {
			if n := len(t.held); n > 0 && r.Equal(*c.at(&t.held[n-1])) {
				c.stats.Duplicates++
				return duplicate, nil, false
			}
			t.held = append(t.held, h)
			c.held++
			return held, nil, false
		}
		if resolved = t.held; len(resolved) > 0 {
			c.held -= len(resolved)
			if uintptr(cap(t.held))*unsafe.Sizeof(h) > heldKeepBytes {
				t.held = nil
			} else {
				t.held = t.held[:0]
			}
			if improper = r.State == mdt.Payment; improper {
				c.stats.ImproperStates += len(resolved)
			} else {
				// A legitimate dropoff: the newest held FREE becomes the
				// duplicate reference.
				c.stats.Output += len(resolved)
				t.setLast(c.at, resolved[len(resolved)-1])
			}
		}
	}
	// Duplicate: identical to this taxi's previous surviving record.
	if t.hasLast && r.Time.Unix() == t.lastSec && r.Equal(*c.at(&t.last)) {
		c.stats.Duplicates++
		return duplicate, resolved, improper
	}
	t.last, t.lastSec, t.hasLast = h, r.Time.Unix(), true
	t.afterPay = r.State == mdt.Payment
	c.stats.Output++
	return survives, resolved, improper
}

// end closes the feed: every FREE still held survives, exactly as a
// dataset ending PAYMENT-FREE keeps its FREE, and every taxi's held
// storage is let go. keep, when non-nil, receives each taxi's held FREEs
// in arrival order (taxis in map order).
func (c *cleaner[H]) end(keep func([]H)) {
	for _, t := range c.taxis {
		if n := len(t.held); n > 0 {
			if keep != nil {
				keep(t.held)
			}
			c.stats.Output += n
			t.setLast(c.at, t.held[n-1])
			t.afterPay = false
		}
		t.held = nil
	}
	c.held = 0
}
