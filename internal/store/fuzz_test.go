package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"time"

	"taxiqueue/internal/mdt"
)

// craftedBlock is a store file of one partition, taxi "A", whose only
// block header declares nRecs records in size payload bytes, between the
// seconds of the first and the last of recs, followed by recs' frames.
func craftedBlock(nRecs, size uint64, recs ...mdt.Record) []byte {
	file := append([]byte(nil), fileMagic[:]...)
	file = binary.AppendUvarint(file, 1) // partitions
	file = binary.AppendUvarint(file, 1) // taxi ID length
	file = append(file, 'A')
	file = binary.AppendUvarint(file, 1) // blocks
	for _, v := range []uint64{nRecs, uint64(recs[0].Time.Unix()), uint64(recs[len(recs)-1].Time.Unix()), size} {
		file = binary.AppendUvarint(file, v)
	}
	for _, r := range recs {
		file = r.AppendBinary(file)
	}
	return file
}

// craftedBlockHeader is craftedBlock with one record's worth of payload.
func craftedBlockHeader(nRecs, size uint64) []byte {
	return craftedBlock(nRecs, size, rec("A", 0, mdt.Free))
}

// loadAllocBound is the most Load may allocate for an n-byte file: its
// fixed buffers — the 1 MiB reader and one legal block's payload — plus a
// generous per-input-byte share for partitions and decoded records, which
// can only come from bytes actually read.
func loadAllocBound(n int) uint64 {
	return 1<<20 + blockTarget*uint64(mdt.BinarySize(mdt.MaxTaxiIDLen)) + 256*uint64(n) + 64<<10
}

// loadAllocs loads data and reports how many bytes the load allocated.
func loadAllocs(data []byte) (*Store, uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s, err := Load(bytes.NewReader(data))
	runtime.ReadMemStats(&m1)
	return s, m1.TotalAlloc - m0.TotalAlloc, err
}

// TestLoadRejectsCraftedBlockHeader: a block header's payload size and
// record count are checked before anything is allocated for them, so a
// header declaring size = 1<<62 cannot panic in makeslice, nor one
// declaring 3 GiB allocate it before the read fails on EOF.
func TestLoadRejectsCraftedBlockHeader(t *testing.T) {
	recSize := uint64(mdt.BinarySize(1))
	for _, c := range []struct{ nRecs, size uint64 }{
		{1, 1 << 62},
		{1, 3 << 30},
		{1 << 40, recSize},
		{blockTarget + 1, (blockTarget + 1) * recSize},
		{2, recSize},
	} {
		file := craftedBlockHeader(c.nRecs, c.size)
		_, alloc, err := loadAllocs(file)
		if !errors.Is(err, errBadFile) {
			t.Fatalf("nRecs %d size %d: err = %v, want errBadFile", c.nRecs, c.size, err)
		}
		if bound := loadAllocBound(len(file)); alloc > bound {
			t.Fatalf("nRecs %d size %d: Load allocated %d bytes, bound %d", c.nRecs, c.size, alloc, bound)
		}
	}
	// The same header with honest numbers loads.
	s, err := Load(bytes.NewReader(craftedBlockHeader(1, recSize)))
	if err != nil || s.Len() != 1 {
		t.Fatalf("honest header: %v, %d records", err, s.Len())
	}
}

// TestLoadRejectsSubSecondDisorder: Load checks each taxi's order at full
// precision, as Append does. A block holding A at 10.5 s and then at
// 10.2 s is a bad file, though both fall in second 10; the same two
// records in time order load.
func TestLoadRejectsSubSecondDisorder(t *testing.T) {
	a, b := atMilli("A", 10500), atMilli("A", 10200)
	size := 2 * uint64(mdt.BinarySize(1))
	if _, err := Load(bytes.NewReader(craftedBlock(2, size, a, b))); !errors.Is(err, errBadFile) {
		t.Fatalf("10.5 s then 10.2 s: err = %v, want errBadFile", err)
	}
	if s, err := Load(bytes.NewReader(craftedBlock(2, size, b, a))); err != nil || s.Len() != 2 {
		t.Fatalf("10.2 s then 10.5 s: %v", err)
	}
}

// scanAll is every record of s in Scan order.
func scanAll(s *Store) []mdt.Record {
	var out []mdt.Record
	s.Scan(time.Unix(-1<<40, 0), time.Unix(1<<40, 0), func(r mdt.Record) bool {
		out = append(out, r)
		return true
	})
	return out
}

// FuzzLoad: Load never panics and never allocates past loadAllocBound, and
// a store it accepts re-saves and reloads to the same Scan.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, alloc, err := loadAllocs(data)
		if bound := loadAllocBound(len(data)); alloc > bound {
			t.Fatalf("Load of %d bytes allocated %d, bound %d", len(data), alloc, bound)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("re-saved store does not load: %v", err)
		}
		a, b := scanAll(s), scanAll(again)
		if len(a) != s.Len() || len(b) != len(a) || again.Len() != s.Len() {
			t.Fatalf("scan of %d (Len %d) reloads as %d (Len %d)", len(a), s.Len(), len(b), again.Len())
		}
		for i := range a {
			if !sameRecord(a[i], b[i]) {
				t.Fatalf("record %d: %+v reloads as %+v", i, a[i], b[i])
			}
		}
	})
}
