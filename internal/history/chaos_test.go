package history

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taxiqueue/internal/chaos"
	"taxiqueue/internal/core"
	"taxiqueue/internal/store"
)

// durableConfig is testConfig plus a tmpdir and small blocks so a single
// simulated day spans several frames.
func durableConfig(t *testing.T, nspots int) Config {
	cfg := testConfig(nspots)
	cfg.Dir = t.TempDir()
	cfg.blockRecords = 24
	return cfg
}

// replayDay blind-re-appends a full recorded day (what a WAL restart
// does) and flushes; the store's watermark makes it idempotent.
func replayDay(t *testing.T, s *Store, day int, cells map[[2]int]Record) {
	t.Helper()
	err := s.AppendSlots(day, 0, s.Grid().Slots, func(spot, slot int) (core.SlotFeatures, core.QueueType) {
		if r, ok := cells[[2]int{spot, slot}]; ok {
			return r.Feats, r.Label
		}
		return core.SlotFeatures{}, core.Unidentified
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

// verifyPrefix asserts every slot below each day-watermark decodes to
// exactly the fault-free cell — a recovered store may know less than the
// reference, but must never serve a partially-decoded block.
func verifyPrefix(t *testing.T, s *Store, day int, cells map[[2]int]Record) {
	t.Helper()
	wm := s.Watermark(day)
	if wm == 0 {
		return
	}
	for spot := 0; spot < s.Spots(); spot++ {
		pts := s.Series(spot, s.TimeOf(day, 0), s.TimeOf(day, wm))
		if len(pts) != wm {
			t.Fatalf("spot %d: %d points below watermark %d", spot, len(pts), wm)
		}
		for _, p := range pts {
			want, active := cells[[2]int{spot, p.Slot}]
			if active != !p.Empty {
				t.Fatalf("spot %d slot %d: empty=%v, reference active=%v", spot, p.Slot, p.Empty, active)
			}
			if active && (p.Label != want.Label || p.Feats != want.Feats) {
				t.Fatalf("spot %d slot %d decoded %v %+v, reference %v %+v",
					spot, p.Slot, p.Label, p.Feats, want.Label, want.Feats)
			}
		}
	}
}

// TestChaosWriteFaultsRotateAndHeal hammers the persist path with short
// writes and fsync errors: every fault must be counted, reads must stay
// correct throughout, and once the disk behaves again one Flush leaves a
// clean durable image that reopens without loss.
func TestChaosWriteFaultsRotateAndHeal(t *testing.T) {
	faults := chaos.New(chaos.Config{Seed: 42, ShortWriteProb: 0.3, SyncErrProb: 0.2})
	cfg := durableConfig(t, 8)
	cfg.FS = faults.FS(nil)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cells := fillDay(t, s, 0, 1)
	_ = s.Flush() // may still be poisoned mid-fault; reads must not care
	verifyDay(t, s, 0, cells)
	if s.Stats().WriteErrors == 0 {
		t.Fatal("no write errors counted under 30% short-write probability")
	}

	faults.SetEnabled(false)
	if err := s.Flush(); err != nil { // heals: owed rewrite completes
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); st.Truncations != 0 {
		t.Fatalf("healed image reopened with %d truncations", st.Truncations)
	}
	if w := r.Watermark(0); w != r.Grid().Slots {
		t.Fatalf("healed image watermark %d", w)
	}
	verifyDay(t, r, 0, cells)
}

// TestChaosSilentTornTail lets the disk lie (short write reported as
// success), closes, and reopens: recovery must cut back to the longest
// clean frame prefix, count the cut, serve only exact fault-free cells,
// and accept an idempotent replay that restores the full day.
func TestChaosSilentTornTail(t *testing.T) {
	faults := chaos.New(chaos.Config{Seed: 7, SilentTornProb: 0.15})
	cfg := durableConfig(t, 8)
	cfg.FS = faults.FS(nil)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cells := fillDay(t, s, 0, 2)
	if err := s.Close(); err != nil { // believes everything landed
		t.Fatal(err)
	}

	faults.SetEnabled(false)
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st := r.Stats()
	if faults.Count("fs_silent_torn") > 0 {
		if st.Truncations == 0 {
			t.Fatal("torn tail on disk but no truncation counted")
		}
		if w := r.Watermark(0); w >= r.Grid().Slots {
			t.Fatalf("watermark %d survived a torn tail", w)
		}
	}
	verifyPrefix(t, r, 0, cells)

	replayDay(t, r, 0, cells)
	verifyDay(t, r, 0, cells)
}

// TestChaosTearTailSweep plants deterministic torn tails of many sizes —
// mid-frame, at frame boundaries, inside the header — and reopens each:
// the survivor must be an exact clean prefix, and a replay must restore
// the full fault-free day.
func TestChaosTearTailSweep(t *testing.T) {
	cfg := durableConfig(t, 6)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cells := fillDay(t, s, 0, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := store.LogFiles(cfg.Dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("fixture wrote %d log files (%v), want 1", len(files), err)
	}
	genName := filepath.Base(files[0])
	image, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	size := len(image)

	// size-10 leaves 10 bytes: a file header torn inside its frame.
	cuts := []int{1, 3, 9, 31, 100, size / 3, size / 2, size - 40, size - 10, size - 3}
	for _, n := range cuts {
		if n <= 0 || n > size {
			continue
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, genName), image, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := chaos.TearTail(filepath.Join(dir, genName), n); err != nil {
			t.Fatal(err)
		}
		torn := cfg
		torn.Dir = dir
		r, err := Open(torn)
		if err != nil {
			t.Fatalf("cut %d: %v", n, err)
		}
		if st := r.Stats(); st.Truncations != 1 {
			t.Fatalf("cut %d: %d truncations, want 1", n, st.Truncations)
		}
		if w := r.Watermark(0); w >= r.Grid().Slots {
			t.Fatalf("cut %d: watermark %d survived the cut", n, w)
		}
		verifyPrefix(t, r, 0, cells)

		replayDay(t, r, 0, cells)
		verifyDay(t, r, 0, cells)

		// And the repaired image must now reopen clean.
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		r2, err := Open(torn)
		if err != nil {
			t.Fatalf("cut %d reopen: %v", n, err)
		}
		if st := r2.Stats(); st.Truncations != 0 {
			t.Fatalf("cut %d: repaired image reopened with %d truncations", n, st.Truncations)
		}
		verifyDay(t, r2, 0, cells)
		r2.Close()
	}
}

// TestChaosConfigMismatch: a complete file written under a different
// grid must be a hard error, not a silent truncation.
func TestChaosConfigMismatch(t *testing.T) {
	cfg := durableConfig(t, 4)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillDay(t, s, 0, 4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Spots = cfg.Spots[:3]
	other.Thresholds = cfg.Thresholds[:3]
	if _, err := Open(other); err == nil {
		t.Fatal("config mismatch opened without error")
	}
}

// twoFileStore writes day 0, closes, reopens and writes day 1: a restart
// continues into a new log file, so the directory holds two.
func twoFileStore(t *testing.T) (Config, []map[[2]int]Record, []string) {
	t.Helper()
	cfg := durableConfig(t, 6)
	var days []map[[2]int]Record
	for d := 0; d < 2; d++ {
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		days = append(days, fillDay(t, s, d, int64(d+1)))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	files, err := store.LogFiles(cfg.Dir)
	if err != nil || len(files) != 2 {
		t.Fatalf("fixture wrote %d log files (%v), want 2", len(files), err)
	}
	return cfg, days, files
}

// TestHistoryBitFlipSweep flips one bit at every byte offset of every
// history file, headers included, and reopens: each flip must fail Open
// or be counted as a truncation, and no served cell may differ from what
// was written.
func TestHistoryBitFlipSweep(t *testing.T) {
	cfg, days, files := twoFileStore(t)
	images := make([][]byte, len(files))
	for i, f := range files {
		images[i], _ = os.ReadFile(f)
	}
	for v := range images {
		for off := range images[v] {
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
			c := cfg
			c.Dir = dir
			r, err := Open(c)
			if err != nil {
				continue
			}
			if r.Stats().Truncations == 0 {
				t.Fatalf("%s byte %d: flip opened clean", filepath.Base(files[v]), off)
			}
			for d, cells := range days {
				verifyPrefix(t, r, d, cells)
			}
			r.Close()
		}
	}
}

// TestOlderFileBadFrameFailsOpen: damage inside a history file that is
// not the newest is bit rot, not a crash — the file was committed before
// the next one existed — so Open fails, naming the file, and leaves every
// file in place.
func TestOlderFileBadFrameFailsOpen(t *testing.T) {
	cfg, _, files := twoFileStore(t)
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0x40 // inside the older file's last frame
	if err := os.WriteFile(files[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(cfg)
	if err == nil {
		t.Fatal("Open accepted a bad frame inside an older file")
	}
	if !strings.Contains(err.Error(), filepath.Base(files[0])) {
		t.Fatalf("error %q does not name %s", err, filepath.Base(files[0]))
	}
	if after, _ := store.LogFiles(cfg.Dir); len(after) != 2 {
		t.Fatalf("failed Open left %d files, want both untouched", len(after))
	}
}

// TestFlushReportsUndurableBlocks: Flush and Close are durability
// barriers, so on a disk where every fsync fails Flush must report it —
// and once the disk heals, one Flush makes the whole day durable.
func TestFlushReportsUndurableBlocks(t *testing.T) {
	faults := chaos.New(chaos.Config{Seed: 21, SyncErrProb: 1})
	cfg := durableConfig(t, 6)
	cfg.FS = faults.FS(nil)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cells := fillDay(t, s, 0, 6)
	if err := s.Flush(); err == nil {
		t.Fatal("Flush returned nil with every fsync failing")
	}
	faults.SetEnabled(false)
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush on a healed disk: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); st.Truncations != 0 {
		t.Fatalf("healed store reopened with %d truncations", st.Truncations)
	}
	verifyDay(t, r, 0, cells)
}
