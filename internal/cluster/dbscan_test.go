package cluster

import (
	"math/rand"
	"testing"

	"taxiqueue/internal/geo"
	"taxiqueue/internal/spatial"
)

// blob generates n points normally distributed (sigma meters) around c.
func blob(rng *rand.Rand, c geo.Point, n int, sigma float64) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Offset(c, rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	return pts
}

func uniformNoise(rng *rand.Rand, n int) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{Lat: 1.22 + rng.Float64()*0.25, Lon: 103.6 + rng.Float64()*0.42}
	}
	return pts
}

func TestDBSCANFindsSeparatedBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c1 := geo.Point{Lat: 1.30, Lon: 103.80}
	c2 := geo.Offset(c1, 5000, 0)
	c3 := geo.Offset(c1, 0, 5000)
	var pts []geo.Point
	pts = append(pts, blob(rng, c1, 100, 5)...)
	pts = append(pts, blob(rng, c2, 100, 5)...)
	pts = append(pts, blob(rng, c3, 100, 5)...)
	res, err := DBSCAN(pts, Params{EpsMeters: 15, MinPoints: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 3 {
		t.Fatalf("found %d clusters, want 3", res.NumClusters)
	}
	// Centroids must each land within a few meters of a blob center.
	cents := res.Centroids(pts)
	for _, want := range []geo.Point{c1, c2, c3} {
		best := 1e18
		for _, c := range cents {
			if d := geo.Haversine(c, want); d < best {
				best = d
			}
		}
		if best > 10 {
			t.Errorf("no centroid within 10 m of %v (best %.1f m)", want, best)
		}
	}
}

func TestDBSCANNoiseOnlyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := uniformNoise(rng, 300) // island-wide scatter: far below density
	res, err := DBSCAN(pts, Params{EpsMeters: 15, MinPoints: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 0 {
		t.Fatalf("found %d clusters in pure noise, want 0", res.NumClusters)
	}
	if res.NoiseCount() != len(pts) {
		t.Fatalf("noise count %d, want %d", res.NoiseCount(), len(pts))
	}
}

func TestDBSCANBlobsPlusNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c1 := geo.Point{Lat: 1.28, Lon: 103.85}
	var pts []geo.Point
	pts = append(pts, blob(rng, c1, 80, 5)...)
	pts = append(pts, uniformNoise(rng, 200)...)
	res, err := DBSCAN(pts, Params{EpsMeters: 15, MinPoints: 25})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 1 {
		t.Fatalf("found %d clusters, want 1", res.NumClusters)
	}
	sizes := res.ClusterSizes()
	if sizes[0] < 75 {
		t.Fatalf("cluster size %d, want >= 75 of the 80 blob points", sizes[0])
	}
}

func TestDBSCANMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var pts []geo.Point
	for i := 0; i < 8; i++ {
		c := geo.Point{Lat: 1.23 + rng.Float64()*0.2, Lon: 103.65 + rng.Float64()*0.3}
		pts = append(pts, blob(rng, c, 30+rng.Intn(40), 8)...)
	}
	pts = append(pts, uniformNoise(rng, 150)...)
	p := Params{EpsMeters: 20, MinPoints: 12}

	fast, err := DBSCAN(pts, p)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := DBSCANNaive(pts, p)
	if err != nil {
		t.Fatal(err)
	}
	if !equivalentLabelings(fast.Labels, naive.Labels) {
		t.Error("grid DBSCAN and naive disagree")
	}
}

// equivalentLabelings reports whether two labelings agree up to cluster
// renumbering. Border points adjacent to two clusters may legally differ
// between visit orders, but our implementations share visit order, so we
// require an exact bijection.
func equivalentLabelings(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[int]int{}
	rev := map[int]int{}
	for i := range a {
		if (a[i] == Noise) != (b[i] == Noise) {
			return false
		}
		if a[i] == Noise {
			continue
		}
		if m, ok := fwd[a[i]]; ok && m != b[i] {
			return false
		}
		if m, ok := rev[b[i]]; ok && m != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		rev[b[i]] = a[i]
	}
	return true
}

func TestDBSCANCorePointProperty(t *testing.T) {
	// Every non-noise cluster must contain at least one core point, and
	// every core point's eps-neighbourhood size must be >= MinPoints.
	rng := rand.New(rand.NewSource(5))
	var pts []geo.Point
	pts = append(pts, blob(rng, geo.Point{Lat: 1.3, Lon: 103.8}, 60, 6)...)
	pts = append(pts, uniformNoise(rng, 100)...)
	p := Params{EpsMeters: 18, MinPoints: 10}
	res, err := DBSCAN(pts, p)
	if err != nil {
		t.Fatal(err)
	}
	idx := spatial.NewLinear(pts)
	coreInCluster := make([]bool, res.NumClusters)
	for i := range pts {
		n := len(idx.Within(pts[i], p.EpsMeters, nil))
		if n >= p.MinPoints {
			if res.Labels[i] == Noise {
				t.Fatalf("core point %d labeled noise", i)
			}
			coreInCluster[res.Labels[i]] = true
		}
	}
	for c, ok := range coreInCluster {
		if !ok {
			t.Errorf("cluster %d has no core point", c)
		}
	}
}

func TestDBSCANParamValidation(t *testing.T) {
	if _, err := DBSCAN(nil, Params{EpsMeters: 0, MinPoints: 5}); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := DBSCAN(nil, Params{EpsMeters: 15, MinPoints: 0}); err == nil {
		t.Error("minPts=0 accepted")
	}
}

func TestDBSCANEmptyAndTinyInputs(t *testing.T) {
	res, err := DBSCAN(nil, Params{EpsMeters: 15, MinPoints: 5})
	if err != nil || res.NumClusters != 0 || len(res.Labels) != 0 {
		t.Fatalf("empty input: %v %+v", err, res)
	}
	one := []geo.Point{{Lat: 1.3, Lon: 103.8}}
	res, err = DBSCAN(one, Params{EpsMeters: 15, MinPoints: 1})
	if err != nil || res.NumClusters != 1 {
		t.Fatalf("single point with minPts=1 should form a cluster: %+v", res)
	}
	res, err = DBSCAN(one, Params{EpsMeters: 15, MinPoints: 2})
	if err != nil || res.NumClusters != 0 || res.Labels[0] != Noise {
		t.Fatalf("single point with minPts=2 should be noise: %+v", res)
	}
}

func TestDBSCANDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := append(blob(rng, geo.Point{Lat: 1.3, Lon: 103.8}, 120, 10), uniformNoise(rng, 120)...)
	p := Params{EpsMeters: 20, MinPoints: 15}
	a, _ := DBSCAN(pts, p)
	b, _ := DBSCAN(pts, p)
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("DBSCAN is not deterministic for identical input")
		}
	}
}

func TestSweepMonotonicity(t *testing.T) {
	// Fig. 6 behaviour: small eps or large minPts find few spots. For a
	// fixed eps, raising minPts can never raise the cluster count above
	// what a single merged run can split... strict monotonicity does not
	// hold for cluster *count* in general, but noise count is monotone
	// non-decreasing in minPts for fixed eps.
	rng := rand.New(rand.NewSource(7))
	var pts []geo.Point
	for i := 0; i < 12; i++ {
		c := geo.Point{Lat: 1.24 + rng.Float64()*0.2, Lon: 103.65 + rng.Float64()*0.3}
		pts = append(pts, blob(rng, c, 40+rng.Intn(80), 7)...)
	}
	pts = append(pts, uniformNoise(rng, 400)...)
	cells, err := SweepParallel(pts, []float64{5, 10, 15, 20}, []int{25, 50, 100, 150}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 16 {
		t.Fatalf("sweep returned %d cells, want 16", len(cells))
	}
	// Row-major order: cells[i*4+j] is eps[i], minPts[j].
	for i := 0; i < 4; i++ {
		for j := 1; j < 4; j++ {
			prev, cur := cells[i*4+j-1], cells[i*4+j]
			if cur.NoisePoints < prev.NoisePoints {
				t.Errorf("eps=%.0f: noise decreased when minPts rose %d->%d",
					cur.Params.EpsMeters, prev.Params.MinPoints, cur.Params.MinPoints)
			}
		}
	}
}

func TestCentroidsAndSizesEmptyResult(t *testing.T) {
	var r Result
	if r.Centroids(nil) != nil {
		t.Error("Centroids of empty result non-nil")
	}
	if len(r.ClusterSizes()) != 0 {
		t.Error("ClusterSizes of empty result non-empty")
	}
}

func BenchmarkDBSCANGrid5k(b *testing.B)  { benchDBSCAN(b, "grid") }
func BenchmarkDBSCANNaive5k(b *testing.B) { benchDBSCAN(b, "naive") }

func benchDBSCAN(b *testing.B, kind string) {
	rng := rand.New(rand.NewSource(8))
	var pts []geo.Point
	for i := 0; i < 25; i++ {
		c := geo.Point{Lat: 1.23 + rng.Float64()*0.22, Lon: 103.62 + rng.Float64()*0.36}
		pts = append(pts, blob(rng, c, 150, 8)...)
	}
	pts = append(pts, uniformNoise(rng, 1250)...)
	p := Params{EpsMeters: 15, MinPoints: 50}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		switch kind {
		case "grid":
			_, err = DBSCAN(pts, p)
		case "naive":
			_, err = DBSCANNaive(pts, p)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
