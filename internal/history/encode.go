package history

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"taxiqueue/internal/core"
	"taxiqueue/internal/store"
)

// Block payload layout (all integers unsigned varints unless noted):
//
//	header:   day, coveredBelow, count
//	summary:  minSlot, maxSlot, labels[0..4],            (only if count > 0)
//	          waitSum, arrSum, qlenSum, depSum           (float64 LE each)
//	columns:  flags      count × 1 byte
//	          slot       count × uvarint, delta from minSlot
//	          spot       count × uvarint
//	          twait      count × uvarint (ns)
//	          tdep       count × uvarint (ns)
//	          waitN      count × uvarint (0 when NArr is explicit)
//	          depN       count × uvarint (0 when NDep is explicit)
//	          street     count × uvarint
//	extras:   per record, in record order:
//	          NArr float64 LE     if flagNArrExplicit
//	          NDep float64 LE     if flagNDepExplicit
//	          QLen float64 LE     if qlen mode == qlenExplicit
//	          booking uvarint     if flagBookingExplicit
//
// Records are sorted by (slot, spot) so the slot column delta-packs and a
// range scan reads them in order. The flag bits record which float
// features survived the bit-exact derivation check at encode time:
// N_arr = waitN·Factor and N_dep = depN·Factor reproduce the §6.2.1
// amplified counts from the raw ones, and L̄ is recomputed from t̄wait and
// N_arr in one of two expression shapes: (t̄wait·N_arr)/len or
// t̄wait·(N_arr/len). Both the stream and the batch engine build cells
// through core.SlotStats.Features, which evaluates the second; the encoder
// still tries the first, and blocks already stored carry it. Float
// multiplication is not associative, so the mode bit replays whichever
// order round-trips. Anything that fails the check is stored as explicit
// bits; decode is lossless either way.
//
// Signed quantities (durations, counts) are stored as uvarint over the
// two's-complement uint64 — never expected negative, but lossless if so.
const (
	flagLabelMask       = 0b0000_0111
	flagQLenShift       = 3
	flagQLenMask        = 0b0001_1000
	flagNArrExplicit    = 0b0010_0000
	flagNDepExplicit    = 0b0100_0000
	flagBookingExplicit = 0b1000_0000

	qlenStream   = 0 // QLen == TWait.Seconds() * NArr / slotSec
	qlenBatch    = 1 // QLen == TWait.Seconds() * (NArr / slotSec)
	qlenExplicit = 2 // QLen stored as raw float64 bits
)

var errBadBlock = errors.New("history: bad block")

// blockSummary is decodable from a block's fixed-size prefix: enough to
// skip the block in a range scan (Day via block, MinSlot/MaxSlot) or
// aggregate it without touching the columns.
type blockSummary struct {
	Count   int
	MinSlot int
	MaxSlot int
	Labels  [int(core.C4) + 1]int
	WaitSum float64 // Σ TWait seconds
	ArrSum  float64 // Σ NArr
	QLenSum float64 // Σ QLen
	DepSum  float64 // Σ NDep
}

// block is one sealed run of records of a single day. Blocks sealed at
// runtime keep their records in memory; blocks recovered at Open are
// disk-resident — only the summary lives in memory, ref locates the
// payload in the store's log, and the records materialize on demand
// through the store's decoded-block cache. A block with Count == 0 is a
// bare watermark carrier: it records that the day is fully empty below
// coveredBelow.
type block struct {
	day          int
	coveredBelow int
	sum          blockSummary
	recs         []Record
	// ref locates the payload of a lazily-recovered block (nil for
	// runtime-sealed blocks). Log refs never move.
	ref *store.Ref
}

// overlaps reports whether the block holds any record in [loSlot, hiSlot).
func (b *block) overlaps(loSlot, hiSlot int) bool {
	return b.sum.Count > 0 && b.sum.MinSlot < hiSlot && b.sum.MaxSlot >= loSlot
}

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// summarize is the summary of recs in their stored order. encodeBlock
// stores it, and decodeBlock checks a payload's stored summary against it.
func summarize(recs []Record) blockSummary {
	sum := blockSummary{Count: len(recs)}
	for i, r := range recs {
		if i == 0 || r.Slot < sum.MinSlot {
			sum.MinSlot = r.Slot
		}
		if i == 0 || r.Slot > sum.MaxSlot {
			sum.MaxSlot = r.Slot
		}
		if int(r.Label) < len(sum.Labels) {
			sum.Labels[r.Label]++
		}
		sum.WaitSum += r.Feats.TWait.Seconds()
		sum.ArrSum += r.Feats.NArr
		sum.QLenSum += r.Feats.QLen
		sum.DepSum += r.Feats.NDep
	}
	return sum
}

// sameSummary compares two summaries field by field, the sums by their
// bits.
func sameSummary(a, b blockSummary) bool {
	return a.Count == b.Count && a.MinSlot == b.MinSlot && a.MaxSlot == b.MaxSlot && a.Labels == b.Labels &&
		sameBits(a.WaitSum, b.WaitSum) && sameBits(a.ArrSum, b.ArrSum) &&
		sameBits(a.QLenSum, b.QLenSum) && sameBits(a.DepSum, b.DepSum)
}

// deriveCount inverts v = count·factor; ok only when the raw count
// reproduces v to the bit.
func deriveCount(v, factor float64) (uint64, bool) {
	n := math.Round(v / factor)
	if n < 0 || n > 1e15 || !sameBits(float64(n)*factor, v) {
		return 0, false
	}
	return uint64(n), true
}

// encodeBlock seals recs (all of one day) into a block and its encoded
// payload. recs are copied and the copy sorted by (slot, spot); the
// caller's slice is untouched.
func encodeBlock(day int, recs []Record, coveredBelow int, amp core.Amplification, slotSec float64) (*block, []byte) {
	sorted := append([]Record(nil), recs...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Slot != sorted[j].Slot {
			return sorted[i].Slot < sorted[j].Slot
		}
		return sorted[i].Spot < sorted[j].Spot
	})

	b := &block{day: day, coveredBelow: coveredBelow, recs: sorted, sum: summarize(sorted)}

	buf := make([]byte, 0, 32+12*len(sorted))
	buf = binary.AppendUvarint(buf, uint64(day))
	buf = binary.AppendUvarint(buf, uint64(coveredBelow))
	buf = binary.AppendUvarint(buf, uint64(len(sorted)))
	if len(sorted) > 0 {
		buf = binary.AppendUvarint(buf, uint64(b.sum.MinSlot))
		buf = binary.AppendUvarint(buf, uint64(b.sum.MaxSlot))
		for _, n := range b.sum.Labels {
			buf = binary.AppendUvarint(buf, uint64(n))
		}
		buf = appendF64(buf, b.sum.WaitSum)
		buf = appendF64(buf, b.sum.ArrSum)
		buf = appendF64(buf, b.sum.QLenSum)
		buf = appendF64(buf, b.sum.DepSum)
	}

	flags := make([]byte, len(sorted))
	waitN := make([]uint64, len(sorted))
	depN := make([]uint64, len(sorted))
	for i, r := range sorted {
		fl := byte(r.Label) & flagLabelMask

		n, ok := deriveCount(r.Feats.NArr, amp.Factor)
		if ok {
			waitN[i] = n
		} else {
			fl |= flagNArrExplicit
		}
		d, ok := deriveCount(r.Feats.NDep, amp.Factor)
		if ok {
			depN[i] = d
		} else {
			fl |= flagNDepExplicit
		}
		// Booking departures fall out of the raw departure count when NDep
		// derived: street + booking = depN.
		if fl&flagNDepExplicit != 0 || int(d)-r.Feats.StreetDepartures != r.Feats.BookingDepartures {
			fl |= flagBookingExplicit
		}

		tw := r.Feats.TWait.Seconds()
		switch {
		case sameBits(tw*r.Feats.NArr/slotSec, r.Feats.QLen):
			fl |= qlenStream << flagQLenShift
		case sameBits(tw*(r.Feats.NArr/slotSec), r.Feats.QLen):
			fl |= qlenBatch << flagQLenShift
		default:
			fl |= qlenExplicit << flagQLenShift
		}
		flags[i] = fl
	}

	buf = append(buf, flags...)
	for _, r := range sorted {
		buf = binary.AppendUvarint(buf, uint64(r.Slot-b.sum.MinSlot))
	}
	for _, r := range sorted {
		buf = binary.AppendUvarint(buf, uint64(r.Spot))
	}
	for _, r := range sorted {
		buf = binary.AppendUvarint(buf, uint64(int64(r.Feats.TWait)))
	}
	for _, r := range sorted {
		buf = binary.AppendUvarint(buf, uint64(int64(r.Feats.TDep)))
	}
	for _, n := range waitN {
		buf = binary.AppendUvarint(buf, n)
	}
	for _, n := range depN {
		buf = binary.AppendUvarint(buf, n)
	}
	for _, r := range sorted {
		buf = binary.AppendUvarint(buf, uint64(int64(r.Feats.StreetDepartures)))
	}
	for i, r := range sorted {
		if flags[i]&flagNArrExplicit != 0 {
			buf = appendF64(buf, r.Feats.NArr)
		}
		if flags[i]&flagNDepExplicit != 0 {
			buf = appendF64(buf, r.Feats.NDep)
		}
		if (flags[i]&flagQLenMask)>>flagQLenShift == qlenExplicit {
			buf = appendF64(buf, r.Feats.QLen)
		}
		if flags[i]&flagBookingExplicit != 0 {
			buf = binary.AppendUvarint(buf, uint64(int64(r.Feats.BookingDepartures)))
		}
	}
	return b, buf
}

// parseSummaryBlock decodes only a payload's summary prefix, leaving the
// columns on disk; Open recovers blocks with it. decodeBlock reads the
// prefix the same way, so a payload decodeBlock accepts parses here to the
// same block summary. The caller wires a log ref so the records can be
// materialized on demand.
func parseSummaryBlock(payload []byte) (*block, error) {
	return readSummary(&byteReader{buf: payload})
}

// minRecordBytes is the least a record takes in a payload: its flag byte
// and one byte for each of its seven varint columns.
const minRecordBytes = 8

// readSummary reads a payload's header and summary prefix — day,
// coveredBelow, count and, when count > 0, the slot range, per-label
// counts and feature sums — leaving r at the first column. The label total
// must reconcile with the record count, and the count must fit in the
// payload.
func readSummary(r *byteReader) (*block, error) {
	day := r.uvarint()
	covered := r.uvarint()
	count := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if count > uint64(len(r.buf))/minRecordBytes {
		return nil, errBadBlock
	}
	b := &block{day: int(day), coveredBelow: int(covered)}
	b.sum.Count = int(count)
	if count == 0 {
		if r.off != len(r.buf) {
			return nil, errBadBlock
		}
		return b, nil
	}
	b.sum.MinSlot = int(r.uvarint())
	b.sum.MaxSlot = int(r.uvarint())
	labelTotal := 0
	for i := range b.sum.Labels {
		b.sum.Labels[i] = int(r.uvarint())
		labelTotal += b.sum.Labels[i]
	}
	b.sum.WaitSum = r.f64()
	b.sum.ArrSum = r.f64()
	b.sum.QLenSum = r.f64()
	b.sum.DepSum = r.f64()
	if r.err != nil {
		return nil, r.err
	}
	if b.sum.MinSlot > b.sum.MaxSlot || labelTotal != b.sum.Count {
		return nil, errBadBlock
	}
	return b, nil
}

// byteReader walks a payload with explicit bounds errors (a torn or
// corrupt frame must decode to an error, never a panic or a short block).
type byteReader struct {
	buf []byte
	off int
	err error
}

func (r *byteReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.err = errBadBlock
		return 0
	}
	r.off += n
	return v
}

func (r *byteReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.err = errBadBlock
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

func (r *byteReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.err = errBadBlock
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// decodeBlock fully decodes and validates payload: it reconstructs every
// record and checks that the records reproduce the stored summary — count,
// slot range, per-label counts and the four sums, bit for bit — so a
// range query that folds the summary instead of the records gets the
// same answer. Open parses only the summary prefix (parseSummaryBlock);
// decodeBlock runs when a query first needs a disk-resident block's
// records (lazy.go), and EagerOpen runs it on every recovered block.
func decodeBlock(payload []byte, amp core.Amplification, slotSec float64) (*block, error) {
	r := &byteReader{buf: payload}
	b, err := readSummary(r)
	if err != nil || b.sum.Count == 0 {
		return b, err
	}
	n := b.sum.Count
	flags := make([]byte, n)
	for i := range flags {
		flags[i] = r.byte()
	}
	recs := make([]Record, n)
	for i := range recs {
		recs[i].Day = b.day
		recs[i].Slot = b.sum.MinSlot + int(r.uvarint())
		recs[i].Label = core.QueueType(flags[i] & flagLabelMask)
	}
	for i := range recs {
		recs[i].Spot = int(r.uvarint())
	}
	for i := range recs {
		recs[i].Feats.TWait = time.Duration(int64(r.uvarint()))
	}
	for i := range recs {
		recs[i].Feats.TDep = time.Duration(int64(r.uvarint()))
	}
	waitN := make([]uint64, n)
	for i := range waitN {
		waitN[i] = r.uvarint()
	}
	depN := make([]uint64, n)
	for i := range depN {
		depN[i] = r.uvarint()
	}
	for i := range recs {
		recs[i].Feats.StreetDepartures = int(int64(r.uvarint()))
	}
	for i := range recs {
		f := &recs[i].Feats
		if flags[i]&flagNArrExplicit != 0 {
			f.NArr = r.f64()
		} else {
			f.NArr = float64(waitN[i]) * amp.Factor
		}
		if flags[i]&flagNDepExplicit != 0 {
			f.NDep = r.f64()
		} else {
			f.NDep = float64(depN[i]) * amp.Factor
		}
		switch (flags[i] & flagQLenMask) >> flagQLenShift {
		case qlenStream:
			f.QLen = f.TWait.Seconds() * f.NArr / slotSec
		case qlenBatch:
			f.QLen = f.TWait.Seconds() * (f.NArr / slotSec)
		case qlenExplicit:
			f.QLen = r.f64()
		default:
			return nil, fmt.Errorf("%w: qlen mode 3", errBadBlock)
		}
		if flags[i]&flagBookingExplicit != 0 {
			f.BookingDepartures = int(int64(r.uvarint()))
		} else {
			f.BookingDepartures = int(depN[i]) - f.StreetDepartures
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(payload) {
		return nil, errBadBlock
	}
	for _, rec := range recs {
		if rec.Label > core.C4 {
			return nil, errBadBlock
		}
	}
	if !sameSummary(summarize(recs), b.sum) {
		return nil, fmt.Errorf("%w: records disagree with the summary", errBadBlock)
	}
	b.recs = recs
	return b, nil
}
