package chaos

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/core"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/history"
	"taxiqueue/internal/mdt"
	"taxiqueue/internal/store"
)

// walRec builds the i-th record of a deterministic single-taxi feed.
func walRec(i int) mdt.Record {
	base := time.Date(2026, 1, 5, 6, 0, 0, 0, time.UTC)
	return mdt.Record{
		Time: base.Add(time.Duration(i) * time.Second), TaxiID: "SH0001A",
		Pos: geo.Point{Lat: 1.3, Lon: 103.8}, Speed: 30, State: mdt.Free,
	}
}

// logBytes snapshots every log file in dir by content.
func logBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files, err := store.LogFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(f)] = b
	}
	return out
}

// TestWALGroupCommitRetriesInjectedFaults: short writes and fsync errors
// hammer the group-commit and rotation paths, yet no appended record is
// ever lost — a failed commit abandons its file, the log keeps every
// record that is not yet durable, and the next commit rewrites them into
// a new file. Once the disk heals, one clean commit makes everything
// durable.
func TestWALGroupCommitRetriesInjectedFaults(t *testing.T) {
	dir := t.TempDir()
	f := New(Config{Seed: 9, ShortWriteProb: 0.4, SyncErrProb: 0.4, RenameErrProb: 0.4})
	cfg := store.LogConfig{FS: f.FS(nil), SegmentBytes: 8 << 10}
	wal, _, err := store.OpenLog(dir, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const total = 2000
	faults := 0
	for i := 0; i < total; i++ {
		wal.Append(walRec(i).AppendBinary(nil))
		if i%64 == 63 {
			if err := wal.Commit(); err != nil {
				faults++
			}
		}
	}
	if faults == 0 || f.Total() == 0 {
		t.Fatalf("fault plan injected nothing (returned %d errors, drew %d faults)", faults, f.Total())
	}
	// The disk heals: one commit covers everything still held.
	f.SetEnabled(false)
	if err := wal.Commit(); err != nil {
		t.Fatalf("commit on a healed disk: %v", err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	var got []mdt.Record
	w2, rec, err := store.OpenLog(dir, nil, store.LogConfig{}, func(_ store.Ref, p []byte) error {
		r, _, err := mdt.DecodeBinary(p)
		got = append(got, r)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rec.Truncated() {
		t.Fatalf("log torn after clean close: %v", rec.Err)
	}
	if len(got) != total {
		t.Fatalf("replayed %d records, appended %d through a faulty disk", len(got), total)
	}
	for i := range got {
		if !got[i].Equal(walRec(i)) {
			t.Fatalf("record %d corrupted by retried commits", i)
		}
	}
}

// TestWALSilentTornTailRecoversCleanPrefix: a lying disk acknowledges a
// group commit but persists only a prefix — the crash-consistency case the
// newest-file tolerance exists for. Recovery resumes from the clean prefix
// and never touches the older files, byte for byte.
func TestWALSilentTornTailRecoversCleanPrefix(t *testing.T) {
	dir := t.TempDir()

	// A healthy run rotates through several files.
	cfg := store.LogConfig{SegmentBytes: 8 << 10}
	wal, _, err := store.OpenLog(dir, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const sealed = 600
	for i := 0; i < sealed; i++ {
		wal.Append(walRec(i).AppendBinary(nil))
		if i%100 == 99 {
			if err := wal.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	before := logBytes(t, dir)
	if len(before) < 2 {
		t.Fatalf("fixture wrote %d files, want at least 2", len(before))
	}

	// The disk starts lying: the next commit is acknowledged but torn.
	f := New(Config{Seed: 3, SilentTornProb: 1})
	wal2, rec, err := store.OpenLog(dir, nil, store.LogConfig{FS: f.FS(nil)}, nil)
	if err != nil || rec.Truncated() {
		t.Fatalf("reopen over clean log: err %v, truncated %v", err, rec.Truncated())
	}
	const extra = 200
	for i := sealed; i < sealed+extra; i++ {
		wal2.Append(walRec(i).AppendBinary(nil))
	}
	if err := wal2.Commit(); err != nil {
		t.Fatalf("the lying disk must acknowledge the commit, got %v", err)
	}
	if f.Count("fs_silent_torn") == 0 {
		t.Fatal("torn-write fault never fired")
	}
	wal2.Abort() // crash

	// Recovery: a clean prefix of the acknowledged records, the full older
	// history, older files untouched.
	n := 0
	w3, _, err := store.OpenLog(dir, nil, store.LogConfig{}, func(_ store.Ref, p []byte) error {
		r, _, err := mdt.DecodeBinary(p)
		if !r.Equal(walRec(n)) {
			t.Fatalf("record %d differs after torn-tail recovery", n)
		}
		n++
		return err
	})
	if err != nil {
		t.Fatalf("recovery over torn tail: %v", err)
	}
	defer w3.Close()
	if n < sealed || n >= sealed+extra {
		t.Fatalf("replayed %d records, want the sealed %d plus a proper prefix of the torn %d", n, sealed, extra)
	}
	after := logBytes(t, dir)
	for name, b := range before {
		if !bytes.Equal(after[name], b) {
			t.Fatalf("older file %s modified by recovery", name)
		}
	}
}

// logUser is one user of store.Log under the fault suite: the ingest WAL
// (one mdt record per frame) or the history store (one encoded block per
// frame). A unit is what the user appends: one record, or one slot of
// cells.
type logUser interface {
	// open (re)opens the user's log in dir, writing through fs (the real
	// filesystem when nil), and reports the truncations recovery counted.
	open(t *testing.T, dir string, fs store.FS) (truncs int, err error)
	add(i int)     // appends unit i
	commit() error // the durability barrier
	close() error
	crash() // drops the instance without committing
	// recovered checks that the reopened content is exactly a prefix of
	// the units and returns its length.
	recovered(t *testing.T) int
}

// walUser drives store.Log the way an ingest shard does.
type walUser struct {
	log *store.Log
	got []mdt.Record
}

func (u *walUser) open(t *testing.T, dir string, fs store.FS) (int, error) {
	u.got = nil
	l, rec, err := store.OpenLog(dir, nil, store.LogConfig{FS: fs, SegmentBytes: 4 << 10}, func(_ store.Ref, p []byte) error {
		r, _, err := mdt.DecodeBinary(p)
		u.got = append(u.got, r)
		return err
	})
	if err != nil {
		return 0, err
	}
	u.log = l
	if rec.Truncated() {
		return 1, nil
	}
	return 0, nil
}

func (u *walUser) add(i int)     { u.log.Append(walRec(i).AppendBinary(nil)) }
func (u *walUser) commit() error { return u.log.Commit() }
func (u *walUser) close() error  { return u.log.Close() }
func (u *walUser) crash()        { u.log.Abort() }

func (u *walUser) recovered(t *testing.T) int {
	t.Helper()
	for i, r := range u.got {
		if !r.Equal(walRec(i)) {
			t.Fatalf("record %d recovered as %+v", i, r)
		}
	}
	return len(u.got)
}

// historyUser drives history.Store: unit i is slot i%Slots of day
// i/Slots, appended as one watermark advance.
type historyUser struct {
	s *history.Store
}

const histSpots = 6

// histCell is the reference cell of (day, spot, slot); every third cell
// is empty.
func histCell(day, spot, slot int) (core.SlotFeatures, core.QueueType) {
	if (day+spot+slot)%3 == 0 {
		return core.SlotFeatures{}, core.Unidentified
	}
	n := 1 + (day*7+spot*5+slot)%11
	return core.SlotFeatures{
		TWait: time.Duration(n) * time.Minute, NArr: float64(n), QLen: float64(n) / 4,
		TDep: time.Duration(n) * time.Second, NDep: float64(n + 1),
		StreetDepartures: n, BookingDepartures: 1,
	}, core.QueueType(1 + (spot+slot)%int(core.C4))
}

func (u *historyUser) open(t *testing.T, dir string, fs store.FS) (int, error) {
	spots := make([]core.QueueSpot, histSpots)
	ths := make([]core.Thresholds, histSpots)
	for i := range spots {
		spots[i] = core.QueueSpot{Pos: geo.Point{Lat: 1.3, Lon: 103.8 + 0.01*float64(i)}, Zone: citymap.Central}
		ths[i] = core.Thresholds{EtaWait: 5 * time.Minute, EtaDep: time.Minute, TauArr: 6, TauDep: 30, EtaDur: 27 * time.Minute, TauRatio: 0.5}
	}
	s, err := history.Open(history.Config{
		Grid:  core.DaySlots(time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)),
		Spots: spots, Thresholds: ths, Amplify: core.PaperAmplification,
		Dir: dir, FS: fs,
	})
	if err != nil {
		return 0, err
	}
	u.s = s
	return int(s.Stats().Truncations), nil
}

func (u *historyUser) add(i int) {
	slots := u.s.Grid().Slots
	day := i / slots
	_ = u.s.AppendSlots(day, i%slots, i%slots+1, func(spot, slot int) (core.SlotFeatures, core.QueueType) {
		return histCell(day, spot, slot)
	})
}

func (u *historyUser) commit() error { return u.s.Flush() }
func (u *historyUser) close() error  { return u.s.Close() }
func (u *historyUser) crash()        { u.s = nil }

func (u *historyUser) recovered(t *testing.T) int {
	t.Helper()
	n, full := 0, true
	for _, day := range u.s.Days() {
		w := u.s.Watermark(day)
		if !full && w > 0 {
			t.Fatalf("day %d recovered after an incomplete day", day)
		}
		full = w == u.s.Grid().Slots
		n += w
		for spot := 0; spot < histSpots; spot++ {
			for _, p := range u.s.Series(spot, u.s.TimeOf(day, 0), u.s.TimeOf(day, w)) {
				f, l := histCell(day, spot, p.Slot)
				if p.Empty != (f == core.SlotFeatures{}) || !p.Empty && (p.Feats != f || p.Label != l) {
					t.Fatalf("day %d spot %d slot %d recovered as %+v", day, spot, p.Slot, p)
				}
			}
		}
	}
	return n
}

// headerFaultFS tears the first write — the file header — of the next n
// files it creates, reporting the short write as an error.
type headerFaultFS struct {
	store.FS
	n int
}

func (h *headerFaultFS) Create(name string) (store.File, error) {
	f, err := h.FS.Create(name)
	if err != nil || h.n == 0 {
		return f, err
	}
	h.n--
	return &tornHeader{File: f}, nil
}

type tornHeader struct {
	store.File
	done bool
}

func (f *tornHeader) Write(b []byte) (int, error) {
	if f.done {
		return f.File.Write(b)
	}
	f.done = true
	n, _ := f.File.Write(b[:len(b)/2])
	return n, injected("short header write")
}

// feed appends units [lo, hi), committing every `every` units, and
// returns how many commits failed.
func feed(u logUser, lo, hi, every int) int {
	fails := 0
	for i := lo; i < hi; i++ {
		u.add(i)
		if (i+1)%every == 0 && u.commit() != nil {
			fails++
		}
	}
	return fails
}

// healsAfter feeds every unit through fs, heals it, and requires one
// commit to make everything durable: a reopen must recover every unit
// with no truncation.
func healsAfter(t *testing.T, u logUser, units int, fs store.FS, heal func() int) {
	dir := t.TempDir()
	if _, err := u.open(t, dir, fs); err != nil {
		t.Fatal(err)
	}
	feed(u, 0, units, 16)
	if injected := heal(); injected == 0 {
		t.Fatal("the fault never fired")
	}
	if err := u.commit(); err != nil {
		t.Fatalf("commit on a healed disk: %v", err)
	}
	if err := u.close(); err != nil {
		t.Fatal(err)
	}
	truncs, err := u.open(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer u.close()
	if truncs != 0 {
		t.Fatalf("healed log reopened with %d truncations", truncs)
	}
	if n := u.recovered(t); n != units {
		t.Fatalf("recovered %d of %d units", n, units)
	}
}

// frameEnds parses a log file and returns the byte offset where its
// header ends followed by the end of each frame.
func frameEnds(t *testing.T, b []byte) []int {
	t.Helper()
	off := 8 + 8 + int(binary.LittleEndian.Uint32(b[8:]))
	ends := []int{off}
	for off < len(b) {
		off += 8 + int(binary.LittleEndian.Uint32(b[off:]))
		ends = append(ends, off)
	}
	if off != len(b) {
		t.Fatalf("file of %d bytes does not end on a frame", len(b))
	}
	return ends
}

// logFaults is the one fault table both users of store.Log run.
var logFaults = []struct {
	name string
	run  func(t *testing.T, u logUser, units int)
}{
	{"short writes", func(t *testing.T, u logUser, units int) {
		f := New(Config{Seed: 11, ShortWriteProb: 0.3})
		healsAfter(t, u, units, f.FS(nil), func() int { f.SetEnabled(false); return f.Total() })
	}},
	{"fsync errors", func(t *testing.T, u logUser, units int) {
		f := New(Config{Seed: 12, SyncErrProb: 0.3})
		healsAfter(t, u, units, f.FS(nil), func() int { f.SetEnabled(false); return f.Total() })
	}},
	{"short write on a file header", func(t *testing.T, u logUser, units int) {
		fs := &headerFaultFS{FS: store.OS, n: 3}
		healsAfter(t, u, units, fs, func() int { return 3 - fs.n })
	}},
	{"silent torn tail", func(t *testing.T, u logUser, units int) {
		// A healthy first half, then a lying disk acknowledges commits
		// it persisted only a prefix of; the lying phase stays inside one
		// file, the newest.
		dir := t.TempDir()
		if _, err := u.open(t, dir, nil); err != nil {
			t.Fatal(err)
		}
		half := units / 2
		feed(u, 0, half, 8)
		if err := u.close(); err != nil {
			t.Fatal(err)
		}
		f := New(Config{Seed: 5, SilentTornProb: 0.5})
		if _, err := u.open(t, dir, f.FS(nil)); err != nil {
			t.Fatal(err)
		}
		if fails := feed(u, half, half+24, 4); fails != 0 {
			t.Fatalf("the lying disk failed %d commits", fails)
		}
		u.crash()
		if f.Count("fs_silent_torn") == 0 {
			t.Fatal("torn-write fault never fired")
		}
		truncs, err := u.open(t, dir, nil)
		if err != nil {
			t.Fatalf("recovery over a torn newest file: %v", err)
		}
		defer u.close()
		if n := u.recovered(t); truncs != 1 || n < half || n >= half+24 {
			t.Fatalf("recovered %d units with %d truncations, want a prefix in [%d, %d) with 1", n, truncs, half, half+24)
		}
	}},
	{"cut at every frame boundary and mid-frame, crash before a file's first commit", func(t *testing.T, u logUser, units int) {
		// The first half is committed and closed; the second half lands
		// in newer files, and the process crashes. Cutting the newest
		// file anywhere — inside its header (the crash between creating
		// it and its first commit), on a frame boundary or mid-frame —
		// must recover the older files intact plus a clean prefix of it.
		src := t.TempDir()
		if _, err := u.open(t, src, nil); err != nil {
			t.Fatal(err)
		}
		half := units / 2
		feed(u, 0, half, 8)
		if err := u.close(); err != nil {
			t.Fatal(err)
		}
		if _, err := u.open(t, src, nil); err != nil {
			t.Fatal(err)
		}
		feed(u, half, units, 8)
		if err := u.commit(); err != nil {
			t.Fatal(err)
		}
		u.crash()
		images := logBytes(t, src)
		files, _ := store.LogFiles(src)
		newest := filepath.Base(files[len(files)-1])
		image := images[newest]
		ends := frameEnds(t, image)
		cuts := []int{0, 3, 12, ends[0] - 1}
		boundary := map[int]bool{}
		for i, e := range ends {
			boundary[e] = true
			cuts = append(cuts, e)
			if i > 0 {
				cuts = append(cuts, (ends[i-1]+e)/2)
			}
		}
		sort.Ints(cuts)
		prev := 0
		for _, cut := range cuts {
			dir := t.TempDir()
			for name, b := range images {
				if name == newest {
					b = b[:cut]
				}
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			truncs, err := u.open(t, dir, nil)
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			n := u.recovered(t)
			u.close()
			if (truncs == 0) != boundary[cut] {
				t.Fatalf("cut %d: %d truncations, frame boundary %v", cut, truncs, boundary[cut])
			}
			if n < half || n < prev {
				t.Fatalf("cut %d: recovered %d units, want at least %d and %d", cut, n, half, prev)
			}
			prev = n
		}
		if prev != units {
			t.Fatalf("the uncut newest file recovered %d of %d units", prev, units)
		}
	}},
}

// TestLogFaultSuite runs the one fault table against both users of
// store.Log: the WAL's mdt records and the history store's blocks.
func TestLogFaultSuite(t *testing.T) {
	users := []struct {
		name  string
		new   func() logUser
		units int
	}{
		{"wal", func() logUser { return &walUser{} }, 600},
		{"history", func() logUser { return &historyUser{} }, 3 * 48},
	}
	for _, fault := range logFaults {
		for _, user := range users {
			t.Run(fault.name+"/"+user.name, func(t *testing.T) {
				fault.run(t, user.new(), user.units)
			})
		}
	}
}
