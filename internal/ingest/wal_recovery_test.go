package ingest

import (
	"os"
	"path/filepath"
	"testing"

	"taxiqueue/internal/mdt"
	"taxiqueue/internal/store"
)

// copySegDir clones one shard's WAL directory so a test can damage the
// copy without touching the original.
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
// property: for an arbitrary crash cut in the newest file, a service
// recovered from the torn log must serve contexts byte-identical to a
// WAL-off service fed exactly the records that survived the cut.
func TestSegmentedRecoveryMatchesWALOffAnyCut(t *testing.T) {
	d := getDay(t)
	cfg := d.serviceConfig()
	cfg.Shards = 1
	cfg.segmentBytes = 64 << 10 // several full files plus an active tail
	dir := t.TempDir()
	cfg.WALDir = dir

	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, svc, d.raw[:6000])
	// Drain barrier: the idle group commit makes every logged byte durable,
	// so the Abort below leaves a fully written newest file to cut into.
	if err := svc.FlushUntil(d.grid.Start); err != nil {
		t.Fatal(err)
	}
	if n := svc.Stats().Shards[0].WALSegments; n < 3 {
		t.Fatalf("fixture wrote %d files, want several for a meaningful cut", n)
	}
	svc.Abort()
	src := shardWALDir(dir, 0)
	activeName := filepath.Base(WALPath(dir, 0))
	active, err := os.Stat(filepath.Join(src, activeName))
	if err != nil {
		t.Fatal(err)
	}

	for _, frac := range []float64{0.15, 0.5, 0.97} {
		cut := int64(float64(active.Size()) * frac)

		// Service A: recover the log with its newest file torn at the cut.
		dirA := t.TempDir()
		copySegDir(t, src, shardWALDir(dirA, 0))
		if err := os.Truncate(filepath.Join(shardWALDir(dirA, 0), activeName), cut); err != nil {
			t.Fatal(err)
		}
		cfgA := cfg
		cfgA.WALDir = dirA
		svcA, err := NewService(cfgA)
		if err != nil {
			t.Fatalf("cut %d: recovery: %v", cut, err)
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

		// Collect the surviving records from a second copy of the same torn
		// log — the exact set service A replayed.
		spare := filepath.Join(t.TempDir(), "spare")
		copySegDir(t, src, spare)
		if err := os.Truncate(filepath.Join(spare, activeName), cut); err != nil {
			t.Fatal(err)
		}
		var recs []mdt.Record
		w, _, err := store.OpenLog(spare, nil, store.LogConfig{}, func(_ store.Ref, p []byte) error {
			r, _, err := mdt.DecodeBinary(p)
			recs = append(recs, r)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Abort()
		if int64(len(recs)) != replayed {
			t.Fatalf("cut %d: spare replay %d records, service replayed %d", cut, len(recs), replayed)
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
		sameContexts(t, "log recovery vs WAL-off", aL, aF, bL, bF)
	}
}
