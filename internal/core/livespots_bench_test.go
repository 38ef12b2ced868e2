package core

import (
	"math/rand"
	"testing"
	"time"

	"taxiqueue/internal/cluster"
	"taxiqueue/internal/geo"
)

// islandScatter is one street-hail pickup anywhere on the island, spread
// over all four Fig. 5 zones.
func islandScatter(rng *rand.Rand) geo.Point {
	return geo.Point{Lat: 1.22 + rng.Float64()*0.25, Lon: 103.6 + rng.Float64()*0.42}
}

// livePool fabricates n pickup centroids: with ranks, two in three sit
// within a few metres of one of twelve ranks laid out 900 m apart and the
// rest scatter island-wide; without, all of them scatter.
func livePool(n int, ranks bool) []geo.Point {
	rng := rand.New(rand.NewSource(99))
	pts := make([]geo.Point, n)
	for i := range pts {
		if ranks && rng.Intn(3) != 0 {
			r := rng.Intn(12)
			rank := geo.Offset(geo.Point{Lat: 1.30, Lon: 103.80}, float64(r/4)*900, float64(r%4)*900)
			pts[i] = geo.Offset(rank, rng.NormFloat64()*8, rng.NormFloat64()*8)
		} else {
			pts[i] = islandScatter(rng)
		}
	}
	return pts
}

// BenchmarkLiveRefresh measures the live discovery cost the ingest tracker
// pays per refresh batch: one op is 64 Observe calls plus one Refresh
// over a 3 h window held at steady state.
//
//   - dense: one pickup per 2 s (~5.4k alive points), twelve ranks plus
//     one-third scatter, MinPoints 10 — every refresh clusters thousands
//     of core points.
//   - sparse: one pickup per 4.32 s (2.5k alive points), all island-wide
//     scatter — no cluster forms, so the cost is the neighbourhood scan.
func BenchmarkLiveRefresh(b *testing.B) {
	for _, bc := range []struct {
		name  string
		every time.Duration
		ranks bool
	}{
		{"dense", 2 * time.Second, true},
		{"sparse", 4320 * time.Millisecond, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			const window = 3 * time.Hour
			pool := livePool(1<<15, bc.ranks)
			d, err := NewLiveDetector(LiveDetectorConfig{
				Cluster: cluster.Params{EpsMeters: 15, MinPoints: 10},
				Window:  window,
			})
			if err != nil {
				b.Fatal(err)
			}
			clock := time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)
			next := 0
			observe := func() {
				clock = clock.Add(bc.every)
				d.Observe(pool[next%len(pool)], clock)
				next++
			}
			// Pre-fill to steady state so b.N measures the sliding regime,
			// not the warm-up ramp.
			for i := 0; i <= int(window/bc.every); i++ {
				observe()
			}
			d.Refresh()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < 64; k++ {
					observe()
				}
				d.Refresh()
			}
		})
	}
}
