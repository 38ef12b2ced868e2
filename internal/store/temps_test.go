package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
)

// multiTaxiStore builds a store with several taxis and enough records to
// span sealed blocks.
func multiTaxiStore(t *testing.T, taxis, perTaxi int) *Store {
	t.Helper()
	s := New()
	start := time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)
	for i := 0; i < perTaxi; i++ {
		for tx := 0; tx < taxis; tx++ {
			r := mdt.Record{
				Time:   start.Add(time.Duration(i) * 7 * time.Second),
				TaxiID: fmt.Sprintf("SH%04d", tx),
				Pos:    geo.Point{Lat: 1.30 + float64(tx)*1e-4, Lon: 103.8 + float64(i)*1e-5},
				Speed:  float64(i % 60),
				State:  mdt.Free,
			}
			if err := s.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

// TestRemoveTemps: stale SaveFileFS temp files (a crash between temp-write
// and rename) are swept; committed files survive.
func TestRemoveTemps(t *testing.T) {
	dir := t.TempDir()
	s := multiTaxiStore(t, 2, 100)
	path := filepath.Join(dir, "shard-000.tqs")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "shard-000.tqs.tmp-1234")
	if err := os.WriteFile(stale, []byte("half-written checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	removed, err := RemoveTemps(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != stale {
		t.Fatalf("removed %v, want just the stale temp", removed)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale temp still present")
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatalf("committed file damaged by sweep: %v", err)
	}
}
