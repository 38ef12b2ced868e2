package ingest

import (
	"os"
	"path/filepath"
	"testing"

	"taxiqueue/internal/mdt"
	"taxiqueue/internal/store"
)

// copySegDir clones one shard's WAL segment directory so a test can damage
// the copy without touching the original.
func copySegDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSegmentedRecoveryMatchesWALOffAnyCut is the crash-cut recovery
// property: for an arbitrary crash cut in the active segment, a service
// recovered from the torn segmented log must serve contexts byte-identical
// to a WAL-off service fed exactly the records that survived the cut.
func TestSegmentedRecoveryMatchesWALOffAnyCut(t *testing.T) {
	d := getDay(t)
	cfg := d.serviceConfig()
	cfg.Shards = 1
	cfg.CheckpointEvery = 1500 // several sealed segments plus an active tail
	dir := t.TempDir()
	cfg.WALDir = dir

	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, svc, d.raw[:6000])
	// Drain barrier: the idle group commit makes every logged byte durable,
	// so the Abort below leaves a fully written active segment to cut into.
	if err := svc.FlushUntil(d.grid.Start); err != nil {
		t.Fatal(err)
	}
	if n := svc.Stats().Shards[0].Checkpoints; n < 3 {
		t.Fatalf("fixture sealed %d segments, want several for a meaningful cut", n)
	}
	svc.Abort()
	src := shardWALDir(dir, 0)
	active, err := os.Stat(filepath.Join(src, "active.seg"))
	if err != nil {
		t.Fatal(err)
	}

	for _, frac := range []float64{0.15, 0.5, 0.97} {
		cut := int64(float64(active.Size()) * frac)

		// Service A: recover the segmented log with its active segment torn
		// at the cut.
		dirA := t.TempDir()
		copySegDir(t, src, shardWALDir(dirA, 0))
		if err := os.Truncate(filepath.Join(shardWALDir(dirA, 0), "active.seg"), cut); err != nil {
			t.Fatal(err)
		}
		cfgA := cfg
		cfgA.WALDir = dirA
		svcA, err := NewService(cfgA)
		if err != nil {
			t.Fatalf("cut %d: segmented recovery: %v", cut, err)
		}
		replayed := svcA.Stats().Replayed
		if replayed <= 0 || replayed >= 6000 {
			t.Fatalf("cut %d: replayed %d, want a proper prefix of the feed", cut, replayed)
		}
		if err := svcA.Flush(); err != nil {
			t.Fatal(err)
		}
		aL, aF := snapshot(t, svcA, d)
		if err := svcA.Close(); err != nil {
			t.Fatal(err)
		}

		// Collect the surviving records from a scratch copy of the same torn
		// log — the exact set service A replayed.
		scratch := filepath.Join(t.TempDir(), "scratch")
		copySegDir(t, src, scratch)
		if err := os.Truncate(filepath.Join(scratch, "active.seg"), cut); err != nil {
			t.Fatal(err)
		}
		var recs []mdt.Record
		w, _, err := store.OpenWAL(scratch, store.WALConfig{}, func(r mdt.Record) {
			recs = append(recs, r)
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Abort()
		if int64(len(recs)) != replayed {
			t.Fatalf("cut %d: scratch replay %d records, service replayed %d", cut, len(recs), replayed)
		}

		// Service B: no WAL, fed exactly the surviving records through the
		// ingest path.
		cfgB := cfg
		cfgB.WALDir = ""
		svcB := runService(t, cfgB, recs)
		bL, bF := snapshot(t, svcB, d)
		if err := svcB.Close(); err != nil {
			t.Fatal(err)
		}
		sameContexts(t, "segmented recovery vs WAL-off", aL, aF, bL, bF)
	}
}

// TestCompactionBoundsSegmentCount: a day of aggressive checkpointing must
// not leave a segment per checkpoint behind — the background compactor
// folds runs of small segments, so replay cost stays proportional to the
// data instead of the checkpoint count.
func TestCompactionBoundsSegmentCount(t *testing.T) {
	d := getDay(t)
	cfg := d.serviceConfig()
	cfg.Shards = 1
	cfg.CheckpointEvery = 400
	dir := t.TempDir()
	cfg.WALDir = dir
	svc := runService(t, cfg, d.raw)
	logged := int64(len(d.raw)) - preWALRejected(svc)
	if err := svc.Close(); err != nil { // waits out the compactor
		t.Fatal(err)
	}
	st := svc.Stats().Shards[0]
	if st.Checkpoints < 20 {
		t.Fatalf("only %d checkpoints, fixture too small to exercise compaction", st.Checkpoints)
	}
	if st.Compactions == 0 {
		t.Fatal("no compactions over a day of 400-record checkpoints")
	}
	ents, err := os.ReadDir(shardWALDir(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, e := range ents {
		if name := e.Name(); filepath.Ext(name) == ".seg" && name != "active.seg" {
			segs++
		}
	}
	if bound := int(st.Checkpoints) / 2; segs >= bound {
		t.Fatalf("%d sealed segments survive %d checkpoints, want compaction to fold them below %d",
			segs, st.Checkpoints, bound)
	}

	// The compacted log still replays every record.
	svc2, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if got := svc2.Stats().Replayed; got != logged {
		t.Fatalf("replayed %d over the compacted log, logged %d", got, logged)
	}
}
