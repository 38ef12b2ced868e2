package history

import (
	"testing"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/clean"
	"taxiqueue/internal/cluster"
	"taxiqueue/internal/core"
	"taxiqueue/internal/sim"
)

// analyzedDay runs the full batch pipeline (sim → clean → Analyze) once
// and caches the result for this package's tests.
var analyzedDayCache *core.Result

func analyzedDay(t testing.TB) *core.Result {
	t.Helper()
	if analyzedDayCache != nil {
		return analyzedDayCache
	}
	out := sim.Run(sim.Config{Seed: 777, City: citymap.Generate(777, 0.1), InjectFaults: true})
	cleaned, _ := clean.Clean(out.Records, clean.Config{ValidFrame: citymap.Island})
	ecfg := core.DefaultEngineConfig()
	ecfg.Detector.Cluster = cluster.Params{EpsMeters: 15, MinPoints: 25}
	eng, err := core.NewEngine(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Analyze(cleaned)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spots) == 0 {
		t.Fatal("batch pipeline detected no spots")
	}
	analyzedDayCache = res
	return res
}

// storeFor opens a history store matching a batch result's grid/spots.
func storeFor(t testing.TB, res *core.Result, dir string) *Store {
	t.Helper()
	spots := make([]core.QueueSpot, len(res.Spots))
	ths := make([]core.Thresholds, len(res.Spots))
	for i := range res.Spots {
		spots[i] = res.Spots[i].Spot
		ths[i] = res.Spots[i].Thresholds
	}
	s, err := Open(Config{
		Grid:       res.Config.Grid,
		Spots:      spots,
		Thresholds: ths,
		Amplify:    res.Config.Amplify,
		Dir:        dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBackfillMatchesBatchResult drives a full simulated day through the
// batch engine, backfills it, and asserts every decoded (spot, slot) cell
// is byte-for-field identical to core.Analyze's output — including the
// synthesized empty cells, which must carry the spot's own empty-slot
// classification.
func TestBackfillMatchesBatchResult(t *testing.T) {
	res := analyzedDay(t)
	s := storeFor(t, res, t.TempDir())
	defer s.Close()
	if err := s.BackfillResult(0, res); err != nil {
		t.Fatal(err)
	}
	grid := s.Grid()
	if w := s.Watermark(0); w != grid.Slots {
		t.Fatalf("backfill left watermark at %d", w)
	}
	for spot := range res.Spots {
		pts := s.Series(spot, grid.Start, grid.Start.Add(s.Grid().DayLen()))
		if len(pts) != grid.Slots {
			t.Fatalf("spot %d: %d points", spot, len(pts))
		}
		for j, p := range pts {
			wantF, wantL := res.Cell(spot, j)
			if p.Feats != wantF || p.Label != wantL {
				t.Fatalf("spot %d slot %d: history (%v, %+v) != batch (%v, %+v)",
					spot, j, p.Label, p.Feats, wantL, wantF)
			}
		}
	}

	// The headline compactness criterion: the durable encoding of the full
	// day must fit in 16 bytes per (slot, spot) grid cell.
	cells := grid.Slots * len(res.Spots)
	perCell := float64(s.Stats().Bytes) / float64(cells)
	t.Logf("day encoded in %d bytes; %d spots × %d slots = %.2f bytes/slot/spot",
		s.Stats().Bytes, len(res.Spots), grid.Slots, perCell)
	if perCell > 16 {
		t.Fatalf("%.2f bytes/slot/spot exceeds the 16-byte budget", perCell)
	}

	// Backfilling the same result again is a no-op.
	before := s.Stats().Records
	if err := s.BackfillResult(0, res); err != nil {
		t.Fatal(err)
	}
	if after := s.Stats().Records; after != before {
		t.Fatalf("re-backfill recorded %d new cells", after-before)
	}
}

// TestBackfillSpotMismatch rejects a result whose spot set doesn't match
// the store's.
func TestBackfillSpotMismatch(t *testing.T) {
	res := analyzedDay(t)
	s := storeFor(t, res, "")
	trimmed := *res
	trimmed.Spots = res.Spots[:len(res.Spots)-1]
	if err := s.BackfillResult(0, &trimmed); err == nil {
		t.Fatal("spot-count mismatch accepted")
	}
}
