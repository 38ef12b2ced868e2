package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"taxiqueue/internal/mdt"
)

// The ingest WAL is a Log with one mdt record per frame; these tests drive
// the Log exactly that way.

// walRecs builds n deterministic records cycling over a few taxis.
func walRecs(n int) []mdt.Record {
	ids := []string{"SH0001A", "SH0002B", "SH0003C"}
	states := []mdt.State{mdt.Free, mdt.POB, mdt.Payment}
	out := make([]mdt.Record, n)
	for i := range out {
		out[i] = rec(ids[i%len(ids)], i, states[i%len(states)])
	}
	return out
}

// hdrLen is the size of a file header under an empty stamp; frameLen the
// size of one walRecs frame (every record encodes to the same length).
var (
	hdrLen   = int64(len(logMagic) + frameHeader + 8)
	frameLen = int64(frameHeader + len(walRecs(1)[0].AppendBinary(nil)))
)

// decodeInto is the WAL's replay callback: one record per frame.
func decodeInto(got *[]mdt.Record) func(Ref, []byte) error {
	return func(_ Ref, p []byte) error {
		r, n, err := mdt.DecodeBinary(p)
		if err != nil {
			return err
		}
		if n != len(p) {
			return fmt.Errorf("%d trailing bytes after the record", len(p)-n)
		}
		*got = append(*got, r)
		return nil
	}
}

// appendRecs appends recs, committing after every `every` records (never
// when every is 0).
func appendRecs(t *testing.T, l *Log, recs []mdt.Record, every int) {
	t.Helper()
	for i, r := range recs {
		l.Append(r.AppendBinary(nil))
		if every > 0 && (i+1)%every == 0 {
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// writeLog creates a log in dir holding recs, committed every `every`
// records, and closes it.
func writeLog(t *testing.T, dir string, cfg LogConfig, recs []mdt.Record, every int) {
	t.Helper()
	l, _, err := OpenLog(dir, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendRecs(t, l, recs, every)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// replayAll opens dir and collects every recovered record.
func replayAll(t *testing.T, dir string, cfg LogConfig) ([]mdt.Record, *Log, Recovery) {
	t.Helper()
	var got []mdt.Record
	l, rec, err := OpenLog(dir, nil, cfg, decodeInto(&got))
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	return got, l, rec
}

func sameRecords(t *testing.T, got, want []mdt.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// logFiles lists dir's log files, oldest first.
func logFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := LogFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	recs := walRecs(100)
	l, rcv, err := OpenLog(dir, nil, LogConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rcv.Records != 0 {
		t.Fatalf("fresh dir replayed %d records", rcv.Records)
	}
	appendRecs(t, l, recs, 0)
	if p := l.Pending(); p != 100 {
		t.Fatalf("Pending = %d before commit, want 100", p)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if p := l.Pending(); p != 0 {
		t.Fatalf("Pending = %d after commit, want 0", p)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, l2, rcv := replayAll(t, dir, LogConfig{})
	defer l2.Close()
	if rcv.Truncated() {
		t.Fatalf("clean log reported damage: %v", rcv.Err)
	}
	sameRecords(t, got, recs)
}

// TestWALSealRotatesAndReplaysInOrder: size rotation seals each file (the
// write-out that finds it full commits it before the next file exists),
// and replay reads the files back in order.
func TestWALSealRotatesAndReplaysInOrder(t *testing.T) {
	dir := t.TempDir()
	recs := walRecs(90)
	cfg := LogConfig{SegmentBytes: hdrLen + 30*frameLen}
	writeLog(t, dir, cfg, recs, 1)
	if n := len(logFiles(t, dir)); n != 3 {
		t.Fatalf("rotated into %d files, want 3 (%v)", n, logFiles(t, dir))
	}
	got, l2, _ := replayAll(t, dir, cfg)
	defer l2.Close()
	sameRecords(t, got, recs)
}

// TestLogEmptyCommitCreatesNoFile: a commit or close with nothing appended
// writes nothing, so reopening an idle log never grows the directory.
func TestLogEmptyCommitCreatesNoFile(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		_, l, _ := replayAll(t, dir, LogConfig{})
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(logFiles(t, dir)); n != 0 {
		t.Fatalf("idle opens created %d files", n)
	}
}

// TestWALCrashCutReplaysLongestCleanPrefix is the crash-cut property: for
// every possible torn tail of the newest file, recovery replays exactly
// the records whose frames survived intact — never fails, never invents.
func TestWALCrashCutReplaysLongestCleanPrefix(t *testing.T) {
	recs := walRecs(40)
	// Build a reference log once to learn the byte offsets of each frame.
	ref := t.TempDir()
	l, _, err := OpenLog(ref, nil, LogConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	offsets := []int64{hdrLen}
	for _, r := range recs {
		l.Append(r.AppendBinary(nil))
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, l.Size())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	name := filepath.Base(logFiles(t, ref)[0])
	data, err := os.ReadFile(filepath.Join(ref, name))
	if err != nil {
		t.Fatal(err)
	}
	for cut := int64(0); cut <= int64(len(data)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, l2, rcv := replayAll(t, dir, LogConfig{})
		l2.Close()
		// The survivors are the records whose whole frame fits below cut.
		n := sort.Search(len(recs), func(i int) bool { return offsets[i+1] > cut })
		sameRecords(t, got, recs[:n])
		// A cut exactly on a frame boundary (header included) is clean;
		// anything else must be reported as a truncation.
		clean := cut >= hdrLen && offsets[n] == cut
		if clean == rcv.Truncated() {
			t.Fatalf("cut %d: Truncated = %v, clean frames %d", cut, rcv.Truncated(), n)
		}
	}
}

func TestWALDamagedSealedSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	cfg := LogConfig{SegmentBytes: hdrLen + 20*frameLen}
	writeLog(t, dir, cfg, walRecs(60), 1)
	files := logFiles(t, dir)
	if len(files) != 3 {
		t.Fatalf("want 3 files, got %v", files)
	}
	// Tearing the tail of a file that is not the newest is real
	// corruption: it was committed before the next file existed, so
	// recovery must refuse to silently drop acknowledged records.
	st, _ := os.Stat(files[0])
	if err := os.Truncate(files[0], st.Size()-5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenLog(dir, nil, cfg, nil); err == nil {
		t.Fatal("OpenLog accepted a damaged file that is not the newest")
	}
}

func TestWALTornLastSealedSegmentTolerated(t *testing.T) {
	dir := t.TempDir()
	recs := walRecs(40)
	cfg := LogConfig{SegmentBytes: hdrLen + 20*frameLen}
	writeLog(t, dir, cfg, recs, 1)
	// The newest file gets the clean-prefix tolerance.
	files := logFiles(t, dir)
	victim := files[len(files)-1]
	st, _ := os.Stat(victim)
	if err := os.Truncate(victim, st.Size()-5); err != nil {
		t.Fatal(err)
	}
	got, l2, rcv := replayAll(t, dir, cfg)
	l2.Close()
	if !rcv.Truncated() {
		t.Fatal("torn newest file not reported")
	}
	if len(got) <= 20 || len(got) >= 40 {
		t.Fatalf("replayed %d records, want a strict prefix above the first file", len(got))
	}
	sameRecords(t, got, recs[:len(got)])
	// The truncation is persisted: a second open is clean and identical.
	got2, l3, rcv2 := replayAll(t, dir, cfg)
	l3.Close()
	if rcv2.Truncated() {
		t.Fatalf("second open still damaged: %v", rcv2.Err)
	}
	sameRecords(t, got2, got)
}

func TestWALWrongMagicFailsOpen(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName(1)), []byte("not a wal segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenLog(dir, nil, LogConfig{}, nil); err == nil {
		t.Fatal("OpenLog accepted a wrong-magic file")
	}
	// A file shorter than the magic is a torn creation, not corruption.
	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, logName(1)), []byte("no"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, l, rcv := replayAll(t, dir2, LogConfig{})
	defer l.Close()
	if len(got) != 0 || !rcv.Truncated() {
		t.Fatalf("torn header: replayed %d, truncated %v", len(got), rcv.Truncated())
	}
}

// TestLogRejectsOldLayouts: a directory holding files of the earlier
// layouts (TQST3 WAL segments, TQHIST1 history generations) or any other
// foreign file fails the open, naming the file, and is never taken for an
// empty log.
func TestLogRejectsOldLayouts(t *testing.T) {
	for _, name := range []string{"active.seg", "seg-000000001-000000001.seg", "hist-0.hb", "notes.txt", "1.log"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), []byte("TQST3\x00\x00\x00"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := OpenLog(dir, nil, LogConfig{}, nil)
		if err == nil {
			t.Fatalf("OpenLog accepted a directory holding %s", name)
		}
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not name %s", err, name)
		}
	}
}

func TestWALAppendContinuesAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	recs := walRecs(75)
	var logged []mdt.Record
	for start := 0; start < len(recs); start += 25 {
		got, l, _ := replayAll(t, dir, LogConfig{})
		sameRecords(t, got, logged)
		appendRecs(t, l, recs[start:start+25], 0)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		logged = append(logged, recs[start:start+25]...)
	}
	got, l, _ := replayAll(t, dir, LogConfig{})
	l.Close()
	sameRecords(t, got, recs)
}

// TestWALStatsTrackWriteVolume: the log's size is its frames plus one
// header per file — independent of how often it committed.
func TestWALStatsTrackWriteVolume(t *testing.T) {
	dir := t.TempDir()
	cfg := LogConfig{SegmentBytes: 1 << 10}
	l, _, err := OpenLog(dir, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendRecs(t, l, walRecs(200), 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	files := logFiles(t, dir)
	if l.Files() != len(files) || len(files) < 5 {
		t.Fatalf("Files = %d, %d on disk, want several", l.Files(), len(files))
	}
	if want := 200*frameLen + int64(len(files))*hdrLen; l.Size() != want {
		t.Fatalf("Size = %d, want %d", l.Size(), want)
	}
	var onDisk int64
	for _, f := range files {
		st, _ := os.Stat(f)
		onDisk += st.Size()
	}
	if onDisk != l.Size() {
		t.Fatalf("Size = %d, files hold %d bytes", l.Size(), onDisk)
	}
}

// TestLogRefReadsPayload: a Ref from replay reads its frame back, also
// after Close, and a corrupted frame fails the read instead of serving it.
func TestLogRefReadsPayload(t *testing.T) {
	dir := t.TempDir()
	recs := walRecs(30)
	writeLog(t, dir, LogConfig{SegmentBytes: hdrLen + 10*frameLen}, recs, 1)
	var refs []Ref
	l, _, err := OpenLog(dir, nil, LogConfig{}, func(ref Ref, _ []byte) error {
		refs = append(refs, ref)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for i, ref := range refs {
		p, err := l.Read(ref)
		if err != nil {
			t.Fatal(err)
		}
		if r, _, err := mdt.DecodeBinary(p); err != nil || !r.Equal(recs[i]) {
			t.Fatalf("ref %d read back %+v (%v), want %+v", i, r, err, recs[i])
		}
	}
	path := filepath.Join(dir, logName(refs[3].file))
	data, _ := os.ReadFile(path)
	data[refs[3].off] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Read(refs[3]); err == nil {
		t.Fatal("Read served a corrupted frame")
	}
}

// TestWALBitFlipSweep flips one bit at every byte offset of a two-file
// log, headers included, and reopens: each flip must fail the open or be
// counted as a truncation, and no replayed record may differ from what
// was written.
func TestWALBitFlipSweep(t *testing.T) {
	ref := t.TempDir()
	recs := walRecs(40)
	cfg := LogConfig{SegmentBytes: hdrLen + 20*frameLen}
	writeLog(t, ref, cfg, recs, 1)
	files := logFiles(t, ref)
	if len(files) != 2 {
		t.Fatalf("fixture wrote %d files, want 2", len(files))
	}
	images := make([][]byte, len(files))
	for i, f := range files {
		images[i], _ = os.ReadFile(f)
	}
	for v, image := range images {
		for off := range image {
			dir := t.TempDir()
			for i, f := range files {
				b := append([]byte(nil), images[i]...)
				if i == v {
					b[off] ^= 1 << (off % 8)
				}
				if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var got []mdt.Record
			l, rcv, err := OpenLog(dir, nil, cfg, decodeInto(&got))
			if err != nil {
				continue
			}
			l.Abort()
			if !rcv.Truncated() {
				t.Fatalf("file %d byte %d: flip opened clean", v, off)
			}
			for i := range got {
				if !got[i].Equal(recs[i]) {
					t.Fatalf("file %d byte %d: record %d replayed as %+v", v, off, i, got[i])
				}
			}
		}
	}
}

// syncFailFS fails the first n fsyncs of the files it creates.
type syncFailFS struct {
	FS
	n int
}

func (s *syncFailFS) Create(name string) (File, error) {
	f, err := s.FS.Create(name)
	return &syncFailFile{File: f, fs: s}, err
}

type syncFailFile struct {
	File
	fs *syncFailFS
}

func (f *syncFailFile) Sync() error {
	if f.fs.n > 0 {
		f.fs.n--
		return fmt.Errorf("injected fsync failure")
	}
	return f.File.Sync()
}

var errStalledSync = errors.New("injected fsync failure")

// stallSyncFS creates files whose fsyncs report on entered, block until
// release is closed and then fail with errStalledSync. Once armed, every
// write is reported on wrote.
type stallSyncFS struct {
	FS
	release chan struct{}
	entered chan struct{}
	wrote   chan struct{}
	armed   bool
}

func (s *stallSyncFS) Create(name string) (File, error) {
	f, err := s.FS.Create(name)
	return &stallSyncFile{File: f, fs: s}, err
}

type stallSyncFile struct {
	File
	fs *stallSyncFS
}

func (f *stallSyncFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.fs.armed {
		select {
		case f.fs.wrote <- struct{}{}:
		default:
		}
	}
	return n, err
}

func (f *stallSyncFile) Sync() error {
	select {
	case f.fs.entered <- struct{}{}:
	default:
	}
	<-f.fs.release
	return errStalledSync
}

// TestCommitKeepsAsyncSyncCause: a Commit that writes its frames while the
// background syncer's fsync of the same file is in flight, and then finds
// that fsync failed, returns an error wrapping the fsync's own.
func TestCommitKeepsAsyncSyncCause(t *testing.T) {
	fs := &stallSyncFS{FS: OS, release: make(chan struct{}), entered: make(chan struct{}, 1), wrote: make(chan struct{}, 1)}
	l, _, err := OpenLog(t.TempDir(), nil, LogConfig{FS: fs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Abort()
	recs := walRecs(4)
	appendRecs(t, l, recs[:2], 0)
	if err := l.CommitAsync(); err != nil {
		t.Fatal(err)
	}
	<-fs.entered // the syncer's fsync is in flight, so Commit must wait for it
	appendRecs(t, l, recs[2:], 0)
	fs.armed = true
	done := make(chan error, 1)
	go func() { done <- l.Commit() }()
	<-fs.wrote // Commit has written to the file whose fsync is still blocked
	close(fs.release)
	if err := <-done; !errors.Is(err, errStalledSync) {
		t.Fatalf("Commit returned %v, want the syncer's fsync failure", err)
	}
}

// TestLogSupersedesAbandonedFile: a failed fsync abandons its file and the
// next commit rewrites the frames into a new file continuing from the
// durable count. Recovery ignores the abandoned file's frames — and skips
// it outright when its header never reached the disk — without counting a
// truncation.
func TestLogSupersedesAbandonedFile(t *testing.T) {
	dir := t.TempDir()
	recs := walRecs(20)
	writeLog(t, dir, LogConfig{}, recs[:10], 0)
	l, _, err := OpenLog(dir, nil, LogConfig{FS: &syncFailFS{FS: OS, n: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendRecs(t, l, recs[10:], 0)
	if err := l.Commit(); err == nil {
		t.Fatal("commit succeeded through a failing fsync")
	}
	if p := l.Pending(); p != 10 {
		t.Fatalf("Pending = %d after a failed commit, want 10", p)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	files := logFiles(t, dir)
	if len(files) != 3 {
		t.Fatalf("want the first, the abandoned and the rewriting file, got %v", files)
	}
	for _, damage := range []bool{false, true} {
		if damage {
			// The abandoned file's header never reached the disk.
			if err := os.Truncate(files[1], 5); err != nil {
				t.Fatal(err)
			}
		}
		got, l2, rcv := replayAll(t, dir, LogConfig{})
		l2.Close()
		if rcv.Truncated() {
			t.Fatalf("damaged header %v: superseded file counted as a truncation: %v", damage, rcv.Err)
		}
		sameRecords(t, got, recs)
	}
}
