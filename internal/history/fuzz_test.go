package history

import (
	"runtime"
	"testing"
	"unsafe"
)

// decodeAllocBound is the most decodeBlock may allocate for an n-byte
// payload: for each of the at most n/minRecordBytes records, its Record,
// flag byte and two raw counts, doubled for the allocator's size classes —
// about 26 bytes per input byte — plus 64 KiB for the block itself and
// whatever the fuzzing worker allocates while the call is measured.
func decodeAllocBound(n int) uint64 {
	perRecord := uint64(unsafe.Sizeof(Record{})) + 1 + 2*8
	return 64<<10 + 2*perRecord*uint64(n/minRecordBytes)
}

// FuzzDecodeBlock: decodeBlock never panics and never allocates past
// decodeAllocBound. A payload it accepts holds records that reproduce the
// summary it read — count, slot range, per-label counts, and the four sums
// folded the way a range query folds decoded records, bit for bit — and
// parseSummaryBlock, which Open recovers blocks with, accepts the payload
// and returns the same block header and summary.
func FuzzDecodeBlock(f *testing.F) {
	cfg := testConfig(1).withDefaults()
	amp, slotSec := cfg.Amplify, cfg.Grid.SlotLen.Seconds()
	f.Fuzz(func(t *testing.T, payload []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b, err := decodeBlock(payload, amp, slotSec)
		runtime.ReadMemStats(&m1)
		if alloc, bound := m1.TotalAlloc-m0.TotalAlloc, decodeAllocBound(len(payload)); alloc > bound {
			t.Fatalf("decodeBlock of %d bytes allocated %d, bound %d", len(payload), alloc, bound)
		}
		if err != nil {
			return
		}
		var folded blockSummary
		var p rangePartial
		for i, r := range b.recs {
			if i == 0 || r.Slot < folded.MinSlot {
				folded.MinSlot = r.Slot
			}
			if i == 0 || r.Slot > folded.MaxSlot {
				folded.MaxSlot = r.Slot
			}
			p.add(r)
		}
		folded.Count, folded.Labels = p.stored, p.labels
		folded.WaitSum, folded.ArrSum, folded.QLenSum, folded.DepSum = p.wait, p.arr, p.qlen, p.dep
		if !sameSummary(folded, b.sum) {
			t.Fatalf("records fold to %+v, summary %+v", folded, b.sum)
		}
		sum, err := parseSummaryBlock(payload)
		if err != nil {
			t.Fatalf("decodeBlock accepts, parseSummaryBlock rejects: %v", err)
		}
		if sum.day != b.day || sum.coveredBelow != b.coveredBelow || !sameSummary(sum.sum, b.sum) {
			t.Fatalf("parseSummaryBlock reads day %d below %d %+v, decodeBlock day %d below %d %+v",
				sum.day, sum.coveredBelow, sum.sum, b.day, b.coveredBelow, b.sum)
		}
	})
}
