package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"taxiqueue/internal/mdt"
)

// dayFile is a day file of the given frame payloads, each framed as Save
// frames it.
func dayFile(payloads ...[]byte) []byte {
	file := append([]byte(nil), dayMagic[:]...)
	for _, p := range payloads {
		file = appendFrame(file, p)
	}
	return file
}

// header is a header payload: the record count n, then a taxi table
// listing ids as given.
func header(n uint64, ids ...string) []byte {
	p := binary.AppendUvarint(nil, n)
	p = binary.AppendUvarint(p, uint64(len(ids)))
	for _, id := range ids {
		p = append(append(p, byte(len(id))), id...)
	}
	return p
}

// block is a block payload declaring n records, then recs, each naming its
// taxi by its index in ids (an ID not in ids by MaxUint64).
func block(n uint64, ids []string, recs ...mdt.Record) []byte {
	p := binary.AppendUvarint(nil, n)
	for _, r := range recs {
		p = appendRecord(p, uint64(slices.Index(ids, r.TaxiID)), &r)
	}
	return p
}

// frameOf is a frame header declaring size payload bytes, then payload.
func frameOf(size uint32, payload []byte) []byte {
	f := binary.LittleEndian.AppendUint32(nil, size)
	f = binary.LittleEndian.AppendUint32(f, frameCRC(f, payload))
	return append(f, payload...)
}

// loadAllocBound is the most Load may allocate for an n-byte file: its
// fixed buffers — the 64 KiB reader and the largest legal block frame (a
// 2-byte count, then 512 records of a 10-byte index and recordBytes) —
// plus a generous per-input-byte share for the taxi table and decoded
// records, which can only come from bytes actually read.
func loadAllocBound(n int) uint64 {
	return 64<<10 + (2 + blockTarget*(10+recordBytes)) + 256*uint64(n)
}

// loadAllocs loads data and reports how many bytes the load allocated.
func loadAllocs(data []byte) (*Store, uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s, err := Load(bytes.NewReader(data))
	runtime.ReadMemStats(&m1)
	return s, m1.TotalAlloc - m0.TotalAlloc, err
}

// TestLoadRejectsCraftedBlockHeader: a frame's length and a block's record
// count are checked before anything is allocated for them. A block frame
// longer than the largest legal block fails before it is read, and the
// header frame grows only as its bytes arrive, so a frame declaring 3 GiB
// or 4 GiB−1 allocates neither; a block of 0, 513 or 1<<40 records, or one
// declaring more records than its payload holds, is a bad file.
func TestLoadRejectsCraftedBlockHeader(t *testing.T) {
	a := []string{"A"}
	r0 := rec("A", 0, mdt.Free)
	table := dayFile(header(1, a...))
	one := block(1, a, r0)
	var full []mdt.Record
	for i := 0; i <= blockTarget; i++ {
		full = append(full, rec("A", i, mdt.Free))
	}
	files := map[string][]byte{
		"block of 0 records":                   dayFile(header(1, a...), block(0, a, r0)),
		"block of 513 records":                 dayFile(header(blockTarget+1, a...), block(blockTarget+1, a, full...)),
		"block of 1<<40 records":               dayFile(header(1, a...), block(1<<40, a, r0)),
		"block declaring 2 records, holding 1": dayFile(header(2, a...), block(2, a, r0)),
	}
	for _, size := range []uint32{3 << 30, math.MaxUint32} {
		files[fmt.Sprintf("table frame of %d bytes", size)] = slices.Concat(dayMagic[:], frameOf(size, header(1, a...)))
		files[fmt.Sprintf("block frame of %d bytes", size)] = slices.Concat(table, frameOf(size, one))
	}
	for name, file := range files {
		_, alloc, err := loadAllocs(file)
		if !errors.Is(err, errBadFile) {
			t.Fatalf("%s: err = %v, want errBadFile", name, err)
		}
		if bound := loadAllocBound(len(file)); alloc > bound {
			t.Fatalf("%s: Load allocated %d bytes, bound %d", name, alloc, bound)
		}
	}
	// The same frames with honest numbers load.
	s, err := Load(bytes.NewReader(dayFile(header(1, a...), one)))
	if err != nil || s.Len() != 1 {
		t.Fatalf("honest header: %v", err)
	}
}

// TestLoadRejectsSubSecondDisorder: Load checks the scan order at full
// precision, as Append checks each taxi's. A block holding A at 10.5 s and
// then at 10.2 s is a bad file, though both fall in second 10; the same two
// records in time order load.
func TestLoadRejectsSubSecondDisorder(t *testing.T) {
	a, b := atMilli("A", 10500), atMilli("A", 10200)
	ids := []string{"A"}
	if _, err := Load(bytes.NewReader(dayFile(header(2, ids...), block(2, ids, a, b)))); !errors.Is(err, errBadFile) {
		t.Fatalf("10.5 s then 10.2 s: err = %v, want errBadFile", err)
	}
	if s, err := Load(bytes.NewReader(dayFile(header(2, ids...), block(2, ids, b, a)))); err != nil || s.Len() != 2 {
		t.Fatalf("10.2 s then 10.5 s: %v", err)
	}
}

// TestLoadRejectsMalformedDay: Load accepts exactly what Save writes. Each
// file below breaks one rule with valid checksums and fails as a bad file;
// the control, which breaks none, loads.
func TestLoadRejectsMalformedDay(t *testing.T) {
	ab := []string{"A", "B"}
	a0, b0, a1 := rec("A", 0, mdt.Free), rec("B", 0, mdt.Free), rec("A", 1, mdt.POB)
	// A record whose 2-byte taxi index leaves the next record one byte
	// short, in a payload long enough for two 1-byte indexes.
	many := make([]string, 130)
	for i := range many {
		many[i] = fmt.Sprintf("T%03d", i)
	}
	torn := block(2, many, rec(many[129], 0, mdt.Free), rec(many[0], 1, mdt.Free))
	for _, c := range []struct {
		name string
		file []byte
	}{
		{"taxi table out of order", dayFile(header(2, "B", "A"), block(2, []string{"B", "A"}, a0, b0))},
		{"taxi index out of range", dayFile(header(2, "A"), block(2, ab, a0, b0))},
		{"two taxis at one nanosecond out of ID order", dayFile(header(2, ab...), block(2, ab, b0, a0))},
		{"taxi with no record", dayFile(header(2, ab...), block(2, ab, a0, a1))},
		{"short block before the last", dayFile(header(3, ab...), block(1, ab, a0), block(2, ab, b0, a1))},
		{"more records than the header declares", dayFile(header(2, ab...), block(3, ab, a0, b0, a1))},
		{"a block after the last", dayFile(header(2, ab...), block(2, ab, a0, b0), block(1, ab, a1))},
		{"a byte after the last block", append(dayFile(header(2, ab...), block(2, ab, a0, b0)), 0)},
		{"stray byte in a block", dayFile(header(2, ab...), append(block(2, ab, a0, b0), 0))},
		{"stray byte in the taxi table", dayFile(append(header(2, ab...), 0), block(2, ab, a0, b0))},
		{"record torn inside its block", dayFile(header(2, many...), torn[:len(torn)-1])},
		{"over-long uvarint", dayFile(header(2, ab...), append([]byte{0x82, 0}, block(2, ab, a0, b0)[1:]...))},
		{"no header", dayMagic[:]},
	} {
		if _, err := Load(bytes.NewReader(c.file)); !errors.Is(err, errBadFile) {
			t.Errorf("%s: err = %v, want errBadFile", c.name, err)
		}
	}
	control := dayFile(header(3, ab...), block(3, ab, a0, b0, a1))
	if s, err := Load(bytes.NewReader(control)); err != nil || s.Len() != 3 {
		t.Fatalf("control: %v", err)
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

// checkLoad loads data and checks the fuzz targets' properties: Load never
// panics and never allocates past loadAllocBound, and a file it accepts
// re-saves byte for byte and reloads to the same Scan.
func checkLoad(t *testing.T, data []byte) {
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
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("accepted %d bytes re-save as %d different bytes", len(data), buf.Len())
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
}

// FuzzLoad fuzzes whole files; see checkLoad for the properties. A mutated
// byte almost always fails a frame's CRC, so FuzzLoadFrames reaches the
// decoders behind the checksums.
func FuzzLoad(f *testing.F) {
	f.Fuzz(checkLoad)
}

// seedFrames reads FuzzLoad's seed file name and cuts the day file it
// holds into its frame payloads: the header's, then each block's.
func seedFrames(f *testing.F, name string) [][]byte {
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzLoad", name))
	if err != nil {
		f.Fatal(err)
	}
	_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "[]byte(")
	day, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil || !strings.HasPrefix(day, string(dayMagic[:])) {
		f.Fatalf("seed %s is not a quoted day file: %v", name, err)
	}
	var payloads [][]byte
	for rest := []byte(day[len(dayMagic):]); len(rest) > 0; {
		n := int(binary.LittleEndian.Uint32(rest))
		payloads, rest = append(payloads, rest[8:8+n]), rest[8+n:]
	}
	if !bytes.Equal(dayFile(payloads...), []byte(day)) {
		f.Fatalf("seed %s does not re-frame to itself", name)
	}
	return payloads
}

// FuzzLoadFrames fuzzes the payloads under the checksums: a header payload
// and up to three block payloads, each framed as Save frames it, so every
// CRC is valid and the input reaches Load's own checks. An empty block
// payload adds no frame. The properties are FuzzLoad's (checkLoad).
func FuzzLoadFrames(f *testing.F) {
	for _, name := range []string{"day-513-records", "day-three-taxis-ties", "day-empty-store"} {
		p := append(seedFrames(f, name), nil, nil, nil)
		f.Add(p[0], p[1], p[2], p[3])
	}
	f.Fuzz(func(t *testing.T, head, b0, b1, b2 []byte) {
		payloads := [][]byte{head}
		for _, b := range [][]byte{b0, b1, b2} {
			if len(b) > 0 {
				payloads = append(payloads, b)
			}
		}
		checkLoad(t, dayFile(payloads...))
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
