package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
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

// fuzzLogPayload is frame i of FuzzOpenLog's log: 0 to 40 bytes, each
// holding i.
func fuzzLogPayload(i int) []byte { return bytes.Repeat([]byte{byte(i)}, i*7%41) }

// fuzzLogImages writes the log FuzzOpenLog damages and returns its files'
// names and bytes, oldest first, and the payloads appended. Two sessions
// write it through 160-byte segments, so it spans several files: the first
// commits 14 frames in groups of three; the second reopens it, loses the
// fsync of its first commit (abandoning that file, which the next commit
// supersedes) and commits 14 more in groups of four.
func fuzzLogImages(f *testing.F) (names []string, images [][]byte, payloads [][]byte) {
	dir := f.TempDir()
	session := func(fs FS, from, to, every int) {
		l, _, err := OpenLog(dir, nil, LogConfig{FS: fs, SegmentBytes: 160}, nil)
		if err != nil {
			f.Fatal(err)
		}
		failing := fs != nil
		for i := from; i < to; i++ {
			payloads = append(payloads, fuzzLogPayload(i))
			l.Append(payloads[i])
			if (i-from)%every == every-1 {
				if err := l.Commit(); (err != nil) != failing {
					f.Fatalf("frame %d: commit error %v, want one: %v", i, err, failing)
				}
				failing = false
			}
		}
		if err := l.Close(); err != nil {
			f.Fatal(err)
		}
	}
	session(nil, 0, 14, 3)
	session(&syncFailFS{FS: OS, n: 1}, 14, 28, 4)
	paths, err := LogFiles(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		names, images = append(names, filepath.Base(p)), append(images, b)
	}
	return names, images, payloads
}

// FuzzOpenLog: one file of a multi-file log is truncated at an offset
// (when cut is below its size) and/or has one byte XORed with a nonzero
// mask. OpenLog never panics; when it opens the log, the payloads it
// replays are a prefix of those appended, and an undamaged log replays
// all of them with nothing truncated. This is recovery's contract for
// both the ingest WAL and the history store.
func FuzzOpenLog(f *testing.F) {
	names, images, payloads := fuzzLogImages(f)
	if len(images) < 4 {
		f.Fatalf("the log spans %d files; the fuzz target needs several", len(images))
	}
	last := uint8(len(images) - 1)
	for _, seed := range []struct {
		file    uint8
		cut, at uint32
		mask    uint8
	}{
		{0, math.MaxUint32, 0, 0},    // undamaged
		{last, 100, 0, 0},            // the newest file torn mid-frame
		{last, 10, 0, 0},             // the newest file's header torn
		{0, 0, 0, 0},                 // the oldest file emptied
		{1, math.MaxUint32, 9, 0x40}, // a length bit in an older file's header
		{1, math.MaxUint32, 40, 1},   // a payload bit in an older file
		{last, 120, 110, 0xff},       // torn and flipped at once
	} {
		f.Add(seed.file, seed.cut, seed.at, seed.mask)
	}
	f.Fuzz(func(t *testing.T, file uint8, cut, at uint32, mask uint8) {
		dir := t.TempDir()
		v := int(file) % len(images)
		damaged := false
		for i, image := range images {
			b := append([]byte(nil), image...)
			if i == v {
				if uint64(cut) < uint64(len(b)) {
					b, damaged = b[:cut], true
				}
				if mask != 0 && len(b) > 0 {
					b[int(at%uint32(len(b)))] ^= mask
					damaged = true
				}
			}
			if err := os.WriteFile(filepath.Join(dir, names[i]), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var got [][]byte
		l, rcv, err := OpenLog(dir, nil, LogConfig{SegmentBytes: 160}, func(_ Ref, p []byte) error {
			got = append(got, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			if !damaged {
				t.Fatalf("undamaged log fails to open: %v", err)
			}
			return
		}
		l.Abort()
		if rcv.Records != len(got) || len(got) > len(payloads) {
			t.Fatalf("replayed %d frames, Recovery counts %d, %d appended", len(got), rcv.Records, len(payloads))
		}
		for i, p := range got {
			if !bytes.Equal(p, payloads[i]) {
				t.Fatalf("frame %d replayed as %x, appended as %x", i, p, payloads[i])
			}
		}
		if !damaged && (len(got) != len(payloads) || rcv.Truncated()) {
			t.Fatalf("undamaged log replayed %d of %d frames, truncation %v", len(got), len(payloads), rcv.Err)
		}
	})
}
