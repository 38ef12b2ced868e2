package cluster_test

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/cluster"
	"taxiqueue/internal/core"
	"taxiqueue/internal/geo"
)

// Incremental clustering is core.LiveDetector: a sliding window of pickup
// centroids that this package's DBSCAN clusters, one Fig. 5 zone at a time,
// at every extraction. The tests below drive that window through inserts,
// churn, expiry splits and bridge merges and check it against batch DBSCAN
// over each zone's alive points, recomputed here from what the test fed
// it.

// liveWindow feeds a core.LiveDetector and keeps every pickup it was fed,
// so the alive set can be derived independently of the detector.
type liveWindow struct {
	det    *core.LiveDetector
	p      cluster.Params
	window time.Duration
	pts    []geo.Point
	ts     []time.Time
	now    time.Time
}

func newLiveWindow(t *testing.T, p cluster.Params, window time.Duration) *liveWindow {
	t.Helper()
	det, err := core.NewLiveDetector(core.LiveDetectorConfig{Cluster: p, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	return &liveWindow{det: det, p: p, window: window}
}

func (w *liveWindow) insert(t *testing.T, p geo.Point, at time.Time) {
	t.Helper()
	if !w.det.Observe(p, at) {
		t.Fatalf("insert of %v at %v rejected", p, at)
	}
	w.pts = append(w.pts, p)
	w.ts = append(w.ts, at)
	w.advance(at)
}

// insertAll feeds pts one second apart starting at t0.
func (w *liveWindow) insertAll(t *testing.T, pts []geo.Point, t0 time.Time) {
	t.Helper()
	for i, p := range pts {
		w.insert(t, p, t0.Add(time.Duration(i)*time.Second))
	}
}

func (w *liveWindow) advance(at time.Time) {
	w.det.Advance(at)
	if at.After(w.now) {
		w.now = at
	}
}

// alive returns the fed points whose time is at least now − window, in
// arrival order.
func (w *liveWindow) alive() []geo.Point {
	var out []geo.Point
	cut := w.now.Add(-w.window)
	for i, p := range w.pts {
		if !w.ts[i].Before(cut) {
			out = append(out, p)
		}
	}
	return out
}

// requireBatchEqual asserts the window's spots are batch DBSCAN over each
// zone's alive points in arrival order — one spot per cluster carrying the
// cluster's centroid bit for bit and its size, ordered by size then
// position — both before and after a Refresh drops the expired points.
// This is the incremental/batch equivalence contract. It returns the
// cluster count.
func requireBatchEqual(t *testing.T, w *liveWindow) int {
	t.Helper()
	pts := w.alive()
	var byZone [citymap.NumZones][]geo.Point
	for _, p := range pts {
		z := citymap.ZoneOf(p)
		byZone[z] = append(byZone[z], p)
	}
	var want []core.QueueSpot
	for z, zpts := range byZone {
		res, err := cluster.DBSCAN(zpts, w.p)
		if err != nil {
			t.Fatal(err)
		}
		cents, sizes := res.Centroids(zpts), res.ClusterSizes()
		for i := range cents {
			want = append(want, core.QueueSpot{Pos: cents[i], Zone: citymap.Zone(z), PickupCount: sizes[i]})
		}
	}
	sort.Slice(want, func(i, j int) bool {
		a, b := want[i], want[j]
		if a.PickupCount != b.PickupCount {
			return a.PickupCount > b.PickupCount
		}
		if a.Pos.Lat != b.Pos.Lat {
			return a.Pos.Lat < b.Pos.Lat
		}
		return a.Pos.Lon < b.Pos.Lon
	})
	for _, stage := range []string{"before Refresh", "after Refresh"} {
		if stage == "after Refresh" {
			w.det.Refresh()
		}
		if n := w.det.Stats().WindowPoints; n != len(pts) {
			t.Fatalf("%s: window holds %d points, %d are alive", stage, n, len(pts))
		}
		got := w.det.Spots()
		if len(got) != len(want) {
			t.Fatalf("%s: window found %d clusters, batch %d", stage, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: spot[%d] = %v, batch says %v", stage, i, got[i], want[i])
			}
		}
	}
	return len(want)
}

func TestIncrementalMatchesBatchInsertOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c1 := geo.Point{Lat: 1.30, Lon: 103.80}
	var pts []geo.Point
	pts = append(pts, cluster.Blob(rng, c1, 120, 6)...)
	pts = append(pts, cluster.Blob(rng, geo.Offset(c1, 400, 120), 90, 6)...)
	pts = append(pts, cluster.UniformNoise(rng, 150)...)
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })

	w := newLiveWindow(t, cluster.Params{EpsMeters: 15, MinPoints: 10}, 3*time.Hour)
	t0 := time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)
	w.insertAll(t, pts, t0)
	if n := requireBatchEqual(t, w); n < 2 {
		t.Fatalf("degenerate fixture: only %d clusters", n)
	}
}

// TestIncrementalMatchesBatchUnderChurn is the core property test: a
// sliding window over a random stream of points, extracted at random
// checkpoints, must match batch DBSCAN over the alive set at every
// checkpoint — with points expiring between checkpoints and inserts
// interleaved.
func TestIncrementalMatchesBatchUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	centers := []geo.Point{
		{Lat: 1.30, Lon: 103.80},
		geo.Offset(geo.Point{Lat: 1.30, Lon: 103.80}, 300, 0),
		geo.Offset(geo.Point{Lat: 1.30, Lon: 103.80}, 0, 250),
	}
	w := newLiveWindow(t, cluster.Params{EpsMeters: 15, MinPoints: 8}, 40*time.Minute)
	clock := time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)
	for step := 0; step < 1500; step++ {
		clock = clock.Add(time.Duration(rng.Intn(5)) * time.Second)
		var p geo.Point
		if rng.Intn(4) == 0 {
			p = cluster.UniformNoise(rng, 1)[0]
		} else {
			p = cluster.Blob(rng, centers[rng.Intn(len(centers))], 1, 8)[0]
		}
		w.insert(t, p, clock)
		if step%97 == 0 {
			requireBatchEqual(t, w)
		}
	}
	requireBatchEqual(t, w)
	alive := len(w.alive())
	if alive == 0 {
		t.Fatal("window drained unexpectedly")
	}
	if alive == len(w.pts) {
		t.Fatal("nothing expired: the window never churned")
	}
}

// TestIncrementalExpireSplitsCluster builds a dumbbell — two dense blobs
// joined by an older bridge of core points — and expires just the bridge:
// one cluster must split into two, matching batch over the survivors.
func TestIncrementalExpireSplitsCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	left := geo.Point{Lat: 1.30, Lon: 103.80}
	right := geo.Offset(left, 0, 120)
	window := 2 * time.Hour
	w := newLiveWindow(t, cluster.Params{EpsMeters: 15, MinPoints: 6}, window)
	t0 := time.Date(2026, 1, 5, 9, 0, 0, 0, time.UTC)

	// The bridge goes in first (oldest): clumps of 6 every 10 m so every
	// bridge point is core.
	var bridge []geo.Point
	for d := 10.0; d < 120; d += 10 {
		bridge = append(bridge, cluster.Blob(rng, geo.Offset(left, 0, d), 6, 1)...)
	}
	w.insertAll(t, bridge, t0)
	newer := append(cluster.Blob(rng, left, 40, 4), cluster.Blob(rng, right, 40, 4)...)
	w.insertAll(t, newer, t0.Add(time.Hour))
	if n := requireBatchEqual(t, w); n != 1 {
		t.Fatalf("dumbbell clustered into %d, want 1", n)
	}

	before := w.det.Stats().WindowPoints
	w.advance(t0.Add(30 * time.Minute).Add(window))
	if n := before - w.det.Stats().WindowPoints; n != len(bridge) {
		t.Fatalf("expired %d points, want the %d bridge points", n, len(bridge))
	}
	if n := requireBatchEqual(t, w); n != 2 {
		t.Fatalf("after the bridge expired: %d clusters, want 2", n)
	}
}

// TestIncrementalMergeAcrossCells checks that two blobs far enough apart
// to occupy different grid cells (and different clusters) fuse into one
// when bridge points land between them, with no expiry in between.
func TestIncrementalMergeAcrossCells(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	left := geo.Point{Lat: 1.30, Lon: 103.80}
	right := geo.Offset(left, 0, 60) // 4 eps-cells away: distinct cell columns
	w := newLiveWindow(t, cluster.Params{EpsMeters: 15, MinPoints: 6}, 3*time.Hour)
	t0 := time.Date(2026, 1, 5, 9, 0, 0, 0, time.UTC)
	w.insertAll(t, append(cluster.Blob(rng, left, 30, 3), cluster.Blob(rng, right, 30, 3)...), t0)
	if n := requireBatchEqual(t, w); n != 2 {
		t.Fatalf("separated blobs clustered into %d, want 2", n)
	}

	var bridge []geo.Point
	for d := 10.0; d < 60; d += 10 {
		bridge = append(bridge, cluster.Blob(rng, geo.Offset(left, 0, d), 6, 1)...)
	}
	w.insertAll(t, bridge, t0.Add(time.Minute))
	if n := requireBatchEqual(t, w); n != 1 {
		t.Fatalf("bridged blobs clustered into %d, want 1", n)
	}
}

// TestIncrementalWindowEmpties drains the window completely and checks
// it stays usable: empty extraction, then a fresh blob clusters again.
func TestIncrementalWindowEmpties(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	c := geo.Point{Lat: 1.28, Lon: 103.85}
	window := 30 * time.Minute
	w := newLiveWindow(t, cluster.Params{EpsMeters: 15, MinPoints: 8}, window)
	t0 := time.Date(2026, 1, 5, 9, 0, 0, 0, time.UTC)
	w.insertAll(t, cluster.Blob(rng, c, 50, 4), t0)
	if n := requireBatchEqual(t, w); n != 1 {
		t.Fatalf("blob clustered into %d, want 1", n)
	}

	w.advance(t0.Add(time.Hour).Add(window))
	if n := w.det.Stats().WindowPoints; n != 0 {
		t.Fatalf("window still holds %d points", n)
	}
	if n := requireBatchEqual(t, w); n != 0 {
		t.Fatalf("empty window extracted %d clusters", n)
	}

	w.insertAll(t, cluster.Blob(rng, c, 40, 4), t0.Add(2*time.Hour))
	if n := requireBatchEqual(t, w); n != 1 {
		t.Fatalf("post-drain blob clustered into %d, want 1", n)
	}
}
