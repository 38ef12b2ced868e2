package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
)

var t0 = time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)

func rec(id string, sec int, state mdt.State) mdt.Record {
	return mdt.Record{
		Time: t0.Add(time.Duration(sec) * time.Second), TaxiID: id,
		Pos: geo.Point{Lat: 1.3, Lon: 103.8}, Speed: float64(sec % 60), State: state,
	}
}

func TestAppendAndLen(t *testing.T) {
	s := New()
	if err := s.AppendAll([]mdt.Record{rec("A", 0, mdt.Free), rec("A", 10, mdt.POB), rec("B", 5, mdt.Free)}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if got := s.Taxis(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("Taxis = %v", got)
	}
}

// atMilli is a record of taxi id at ms milliseconds past t0.
func atMilli(id string, ms int) mdt.Record {
	r := rec(id, 0, mdt.Free)
	r.Time = t0.Add(time.Duration(ms) * time.Millisecond)
	return r
}

func TestAppendOutOfOrderRejected(t *testing.T) {
	s := New()
	if err := s.Append(rec("A", 100, mdt.Free)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec("A", 50, mdt.Free)); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("out-of-order append: err = %v, want ErrOutOfOrder", err)
	}
	// A different taxi at an earlier time is fine.
	if err := s.Append(rec("B", 50, mdt.Free)); err != nil {
		t.Fatalf("cross-taxi earlier append rejected: %v", err)
	}
	// Equal timestamps are fine.
	if err := s.Append(rec("A", 100, mdt.POB)); err != nil {
		t.Fatalf("same-time append rejected: %v", err)
	}
}

// TestAppendOrderAtFullPrecision: Append compares a taxi's times at full
// precision, so Scan's order, which is by full-precision time, keeps each
// taxi's records in append order. A at 10.2 s after A at 10.5 s is out of
// order though both fall in second 10; accepted, Scan would emit
// B 10.3, A 10.5, A 10.2.
func TestAppendOrderAtFullPrecision(t *testing.T) {
	s := New()
	if err := s.Append(atMilli("A", 10500)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(atMilli("A", 10200)); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("A 10.2 s after A 10.5 s: err = %v, want ErrOutOfOrder", err)
	}
	if err := s.Append(atMilli("B", 10300)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(atMilli("A", 10500)); err != nil {
		t.Fatalf("same-time append rejected: %v", err)
	}
	var got []string
	for _, r := range scanAll(s) {
		got = append(got, fmt.Sprintf("%s %d", r.TaxiID, r.Time.Sub(t0).Milliseconds()))
	}
	if want := "[B 10300 A 10500 A 10500]"; fmt.Sprint(got) != want {
		t.Fatalf("scan = %v, want %s", got, want)
	}
}

// TestAppendRejectsWhatSaveCannotWrite: Append refuses a record whose
// binary frame would not load back — a 256-byte taxi ID (Save panicked on
// it), a time in the year 3000 and state byte 99 (Load rejected the saved
// file) — and leaves the store as it was, still saving and loading. The
// longest ID it accepts, 255 bytes, loads back (Load panicked on it).
func TestAppendRejectsWhatSaveCannotWrite(t *testing.T) {
	s := New()
	longest := rec(strings.Repeat("x", mdt.MaxTaxiIDLen), 0, mdt.Free)
	for _, r := range []mdt.Record{rec("A", 0, mdt.Free), longest} {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	long := rec(strings.Repeat("x", mdt.MaxTaxiIDLen+1), 1, mdt.Free)
	far := rec("A", 1, mdt.Free)
	far.Time = time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC)
	badState := rec("B", 1, mdt.State(99))
	for _, r := range []mdt.Record{long, far, badState} {
		if err := s.Append(r); err == nil {
			t.Fatalf("Append accepted %q at %v in state %d", r.TaxiID[:min(len(r.TaxiID), 8)], r.Time, r.State)
		}
	}
	if s.Len() != 2 || len(s.Taxis()) != 2 {
		t.Fatalf("rejected appends changed the store: Len %d, taxis %v", s.Len(), s.Taxis())
	}
	if got := saveLoad(t, s); got.Len() != 2 || !slices.Equal(got.Taxis(), s.Taxis()) {
		t.Fatalf("reloaded %d records of %d taxis, want the 2 records of both", got.Len(), len(got.Taxis()))
	}
}

// taxiScan is one taxi's records with time in [from, to), read back
// through Scan.
func taxiScan(s *Store, id string, from, to time.Time) mdt.Trajectory {
	var out mdt.Trajectory
	s.Scan(from, to, func(r mdt.Record) bool {
		if r.TaxiID == id {
			out = append(out, r)
		}
		return true
	})
	return out
}

func TestTrajectoryWindow(t *testing.T) {
	s := New()
	for i := 0; i < 2000; i++ { // spans multiple sealed blocks
		if err := s.Append(rec("A", i*10, mdt.Free)); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(rec("B", i*10+5, mdt.Free)); err != nil {
			t.Fatal(err)
		}
	}
	from, to := t0.Add(5000*time.Second), t0.Add(10000*time.Second)
	tr := taxiScan(s, "A", from, to)
	if len(tr) != 500 {
		t.Fatalf("window returned %d records, want 500", len(tr))
	}
	for _, r := range tr {
		if r.Time.Before(from) || !r.Time.Before(to) {
			t.Fatalf("record at %v outside window", r.Time)
		}
	}
	if !tr.Sorted() {
		t.Fatal("windowed trajectory not sorted")
	}
	if taxiScan(s, "NOPE", from, to) != nil {
		t.Fatal("unknown taxi returned records")
	}
}

func TestFullTrajectory(t *testing.T) {
	s := New()
	n := blockTarget*2 + 37 // blocks plus an open tail
	for i := 0; i < n; i++ {
		if err := s.Append(rec("A", i, mdt.Free)); err != nil {
			t.Fatal(err)
		}
	}
	tr := taxiScan(s, "A", t0, t0.Add(time.Duration(n)*time.Second))
	if len(tr) != n {
		t.Fatalf("full scan returned %d, want %d", len(tr), n)
	}
	if !tr.Sorted() {
		t.Fatal("full trajectory not sorted")
	}
}

func TestScanGlobalOrder(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(1))
	// Interleave 20 taxis with random increments, appended per taxi in
	// order, then verify the global scan is time-sorted and complete.
	clock := make([]int, 20)
	var total int
	for i := 0; i < 5000; i++ {
		taxi := rng.Intn(20)
		clock[taxi] += 1 + rng.Intn(50)
		id := string(rune('A' + taxi))
		if err := s.Append(rec(id, clock[taxi], mdt.Free)); err != nil {
			t.Fatal(err)
		}
		total++
	}
	var seen []mdt.Record
	s.Scan(t0, t0.Add(time.Hour*100), func(r mdt.Record) bool {
		seen = append(seen, r)
		return true
	})
	if len(seen) != total {
		t.Fatalf("scan returned %d records, want %d", len(seen), total)
	}
	if !sort.SliceIsSorted(seen, func(i, j int) bool { return seen[i].Time.Before(seen[j].Time) }) {
		t.Fatal("global scan not time-sorted")
	}
}

func TestScanEarlyStop(t *testing.T) {
	s := New()
	for i := 0; i < 100; i++ {
		if err := s.Append(rec("A", i, mdt.Free)); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	s.Scan(t0, t0.Add(time.Hour), func(mdt.Record) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("scan visited %d records after early stop, want 10", n)
	}
}

func TestScanWindowPruning(t *testing.T) {
	s := New()
	for i := 0; i < 3000; i++ {
		if err := s.Append(rec("A", i*10, mdt.Free)); err != nil {
			t.Fatal(err)
		}
	}
	from, to := t0.Add(100*time.Second), t0.Add(200*time.Second)
	var cnt int
	s.Scan(from, to, func(r mdt.Record) bool {
		if r.Time.Before(from) || !r.Time.Before(to) {
			t.Fatalf("scan leaked %v outside window", r.Time)
		}
		cnt++
		return true
	})
	if cnt != 10 {
		t.Fatalf("windowed scan returned %d, want 10", cnt)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := New()
	states := []mdt.State{mdt.Free, mdt.POB, mdt.STC, mdt.Payment}
	for i := 0; i < 1500; i++ {
		r := rec("SH0001A", i*7, states[i%4])
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 700; i++ {
		if err := s.Append(rec("SH0002B", i*11, mdt.Free)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != s.Len() {
		t.Fatalf("loaded %d records, want %d", loaded.Len(), s.Len())
	}
	all := t0.Add(100 * time.Hour)
	a := taxiScan(s, "SH0001A", t0, all)
	b := taxiScan(loaded, "SH0001A", t0, all)
	if len(a) != len(b) {
		t.Fatalf("trajectory lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("record %d differs after round trip", i)
		}
	}
}

func TestSaveIsAppendableAfter(t *testing.T) {
	// Save seals open blocks; the store must still accept appends after.
	s := New()
	if err := s.Append(rec("A", 0, mdt.Free)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec("A", 10, mdt.POB)); err != nil {
		t.Fatalf("append after save failed: %v", err)
	}
	if got := taxiScan(s, "A", t0, t0.Add(time.Hour)); len(got) != 2 {
		t.Fatalf("trajectory after save+append = %d records", len(got))
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a store file"))); err == nil {
		t.Fatal("Load accepted garbage")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("Load accepted empty input")
	}
	// Truncated valid file.
	s := New()
	for i := 0; i < 100; i++ {
		if err := s.Append(rec("A", i, mdt.Free)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Load(bytes.NewReader(trunc)); err == nil {
		t.Fatal("Load accepted truncated file")
	}
}

// TestLoadRejectsCutAtFrameBoundary: a day file cut where a frame ends —
// after the magic, the header or any block — is a bad file, though every
// frame left is whole and every taxi left has a record. The store spans
// four block frames, the last one short.
func TestLoadRejectsCutAtFrameBoundary(t *testing.T) {
	s := New()
	for i := 0; i < 3*blockTarget+100; i++ {
		if err := s.Append(rec(fmt.Sprintf("SH000%dA", i%3), i/3, mdt.Free)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	cuts := 0
	for end := len(dayMagic); end < len(file); end += frameHeader + int(binary.LittleEndian.Uint32(file[end:])) {
		if _, err := Load(bytes.NewReader(file[:end])); !errors.Is(err, errBadFile) {
			t.Fatalf("file of %d bytes cut at %d: err = %v, want errBadFile", len(file), end, err)
		}
		cuts++
	}
	if cuts != 1+1+3 {
		t.Fatalf("tried %d cuts, want 5: after the magic, the header and each block but the last", cuts)
	}
}

func TestLoadRejectsBitFlips(t *testing.T) {
	// Byte-level corruption anywhere in the file must either load the
	// exact same data or fail cleanly — never panic or silently return
	// different records. Every byte after the magic is under a CRC32C, so
	// each flip here fails.
	s := New()
	for i := 0; i < 150; i++ {
		if err := s.Append(rec(fmt.Sprintf("SH000%dA", i%3), i/3*7, mdt.State(i%4))); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	orig, want := buf.Bytes(), scanAll(s)
	for pos := range orig {
		corrupt := append([]byte(nil), orig...)
		corrupt[pos] ^= 1 << (pos % 8)
		loaded, err := Load(bytes.NewReader(corrupt))
		if err != nil {
			if !errors.Is(err, errBadFile) {
				t.Fatalf("bit flip at %d: err = %v, want errBadFile", pos, err)
			}
			continue
		}
		got := scanAll(loaded)
		if len(got) != len(want) {
			t.Fatalf("bit flip at %d loaded %d records, saved %d", pos, len(got), len(want))
		}
		for i := range got {
			if !sameRecord(got[i], want[i]) {
				t.Fatalf("bit flip at %d: record %d loads as %+v, saved %+v", pos, i, got[i], want[i])
			}
		}
	}
}

func TestEmptyStore(t *testing.T) {
	s := New()
	if s.Len() != 0 || len(s.Taxis()) != 0 {
		t.Fatal("empty store not empty")
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 0 {
		t.Fatal("loaded empty store not empty")
	}
	loaded.Scan(t0, t0.Add(time.Hour), func(mdt.Record) bool {
		t.Fatal("scan of empty store yielded a record")
		return false
	})
}

func BenchmarkAppend(b *testing.B) {
	s := New()
	for i := 0; i < b.N; i++ {
		if err := s.Append(rec("A", i, mdt.Free)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScan100k(b *testing.B) {
	s := New()
	for taxi := 0; taxi < 50; taxi++ {
		id := "T" + string(rune('A'+taxi%26)) + string(rune('A'+taxi/26))
		for i := 0; i < 2000; i++ {
			if err := s.Append(rec(id, i*5+taxi, mdt.Free)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		s.Scan(t0, t0.Add(100*time.Hour), func(mdt.Record) bool { n++; return true })
		if n != 100000 {
			b.Fatalf("scan saw %d", n)
		}
	}
}

// dayStore is a day-shaped store built in memory: 3,000 taxis log over
// 24 h, each every 125 s on average (a full simulated day's rate) at
// sub-second times, which gives about 2.07 M records. They are appended
// taxi by taxi, so the store is out of scan order until its first read.
func dayStore(b *testing.B) *Store {
	rng := rand.New(rand.NewSource(18))
	s := New()
	for taxi := 0; taxi < 3000; taxi++ {
		r := rec(fmt.Sprintf("SH%04dA", taxi), 0, mdt.Free)
		for at := time.Duration(rng.Int63n(int64(125 * time.Second))); at < 24*time.Hour; at += time.Duration((0.1 + rng.ExpFloat64()) * 114 * float64(time.Second)) {
			r.Time = t0.Add(at)
			if err := s.Append(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	return s
}

// BenchmarkScan times Scan alone, without Load: one full-window Scan of
// dayStore, sorted by a first Scan before the timer starts, as a loaded
// store already is.
func BenchmarkScan(b *testing.B) {
	s := dayStore(b)
	s.Scan(time.Time{}, time.Time{}, func(mdt.Record) bool { return true })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		s.Scan(time.Time{}, time.Unix(1<<40, 0), func(mdt.Record) bool { n++; return true })
		if n != s.Len() {
			b.Fatalf("scan saw %d of %d records", n, s.Len())
		}
	}
}

// BenchmarkSort times the one sort a first read runs after appends out of
// scan order: dayStore's taxi-by-taxi feed put in scan order.
func BenchmarkSort(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := dayStore(b)
		b.StartTimer()
		s.inOrder()
	}
}

func BenchmarkSaveLoad(b *testing.B) {
	s := New()
	for i := 0; i < 50000; i++ {
		if err := s.Append(rec("A", i, mdt.Free)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := Load(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSaveFileLoadFileRoundTrip(t *testing.T) {
	s := New()
	for i := 0; i < 1500; i++ {
		if err := s.Append(rec("A", i, mdt.Free)); err != nil {
			t.Fatal(err)
		}
	}
	path := t.TempDir() + "/day.tqs"
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("loaded %d records, want %d", got.Len(), s.Len())
	}
}

// TestSaveFileAtomic: a failed save must leave the previous on-disk copy
// intact and no temp litter behind.
func TestSaveFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/day.tqs"
	s := New()
	if err := s.Append(rec("A", 0, mdt.Free)); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// A save into a directory that vanished must fail, name the path, and
	// not disturb anything else.
	if err := s.SaveFile(dir + "/gone/day.tqs"); err == nil {
		t.Fatal("save into missing directory succeeded")
	} else if !strings.Contains(err.Error(), "gone/day.tqs") {
		t.Fatalf("error does not name the path: %v", err)
	}
	// Overwrite with a bigger store; the old copy must stay loadable at
	// every instant (we can only spot-check the end state here, plus that
	// no temp files leak).
	for i := 1; i < 3000; i++ {
		if err := s.Append(rec("A", i, mdt.Free)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "day.tqs" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory not clean after saves: %v", names)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3000 {
		t.Fatalf("loaded %d records, want 3000", got.Len())
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(t.TempDir() + "/nope.tqs"); err == nil {
		t.Fatal("loading a missing file succeeded")
	} else if !strings.Contains(err.Error(), "nope.tqs") {
		t.Fatalf("error does not name the path: %v", err)
	}
}
