package cluster

import (
	"math/rand"
	"testing"

	"taxiqueue/internal/geo"
	"taxiqueue/internal/spatial"
)

var testWorkerCounts = []int{1, 2, 3, 4, 8, 16}

// assertLabelsEqual requires byte-identical labelings, not merely a cluster
// bijection: DBSCANParallel promises the exact sequential output.
func assertLabelsEqual(t *testing.T, name string, want, got Result) {
	t.Helper()
	if got.NumClusters != want.NumClusters {
		t.Fatalf("%s: %d clusters, want %d", name, got.NumClusters, want.NumClusters)
	}
	if len(got.Labels) != len(want.Labels) {
		t.Fatalf("%s: %d labels, want %d", name, len(got.Labels), len(want.Labels))
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("%s: label[%d] = %d, want %d", name, i, got.Labels[i], want.Labels[i])
		}
	}
}

// checkAllVariants runs the sequential reference, the naive O(n²) reference
// and the parallel variant at every worker count, demanding identical labels
// throughout. The parallel machinery is exercised directly (runParallel) so
// the small-input fallback in DBSCANParallel cannot mask a merge bug.
func checkAllVariants(t *testing.T, name string, pts []geo.Point, p Params) {
	t.Helper()
	want, err := DBSCAN(pts, p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	naive, err := DBSCANNaive(pts, p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	assertLabelsEqual(t, name+"/naive", want, naive)
	for _, workers := range testWorkerCounts {
		res, err := DBSCANParallel(pts, p, workers)
		if err != nil {
			t.Fatalf("%s/workers=%d: %v", name, workers, err)
		}
		assertLabelsEqual(t, name+"/parallel", want, res)
		if workers > 1 {
			direct := runParallel(pts, p, spatial.NewGrid(pts, p.EpsMeters), workers)
			assertLabelsEqual(t, name+"/runParallel", want, direct)
		}
	}
}

// TestDBSCANParallelMatchesSequentialRandom is the ISSUE's property test:
// randomized blob/noise/duplicate mixtures across parameter settings must
// label identically under every variant and worker count.
func TestDBSCANParallelMatchesSequentialRandom(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		var pts []geo.Point
		nBlobs := 3 + rng.Intn(8)
		for b := 0; b < nBlobs; b++ {
			c := geo.Point{Lat: 1.23 + rng.Float64()*0.2, Lon: 103.65 + rng.Float64()*0.3}
			pts = append(pts, blob(rng, c, 20+rng.Intn(120), 4+rng.Float64()*10)...)
		}
		pts = append(pts, uniformNoise(rng, 50+rng.Intn(300))...)
		// Sprinkle exact duplicates: DBSCAN must treat them consistently.
		for d := 0; d < 30; d++ {
			pts = append(pts, pts[rng.Intn(len(pts))])
		}
		// Shuffle so spatially adjacent points land in different partitions.
		rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		p := Params{
			EpsMeters: []float64{8, 15, 25}[rng.Intn(3)],
			MinPoints: []int{3, 10, 30}[rng.Intn(3)],
		}
		checkAllVariants(t, "random", pts, p)
	}
}

func TestDBSCANParallelDegenerateInputs(t *testing.T) {
	// Empty input.
	checkAllVariants(t, "empty", nil, Params{EpsMeters: 15, MinPoints: 5})

	// All points identical: one cluster when the count clears MinPoints...
	dup := make([]geo.Point, 700)
	for i := range dup {
		dup[i] = geo.Point{Lat: 1.3, Lon: 103.8}
	}
	checkAllVariants(t, "duplicates", dup, Params{EpsMeters: 15, MinPoints: 50})
	// ...and pure noise when it does not.
	checkAllVariants(t, "duplicates-noise", dup, Params{EpsMeters: 15, MinPoints: len(dup) + 1})

	// Tiny inputs still go through runParallel in checkAllVariants.
	one := []geo.Point{{Lat: 1.3, Lon: 103.8}}
	checkAllVariants(t, "single-core", one, Params{EpsMeters: 15, MinPoints: 1})
	checkAllVariants(t, "single-noise", one, Params{EpsMeters: 15, MinPoints: 2})
}

// TestDBSCANParallelChainSpansPartitions builds one long thin cluster whose
// points are shuffled across the index range, so nearly every ε-edge crosses
// a partition boundary and the union-find merge carries the whole cluster.
func TestDBSCANParallelChainSpansPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	start := geo.Point{Lat: 1.25, Lon: 103.7}
	pts := make([]geo.Point, 3000)
	for i := range pts {
		// 5 m steps heading east; eps 12 m links each point to its chain
		// neighbours only.
		pts[i] = geo.Offset(start, 0, float64(i)*5)
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	p := Params{EpsMeters: 12, MinPoints: 3}
	checkAllVariants(t, "chain", pts, p)
	res, err := DBSCANParallel(pts, p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 1 {
		t.Fatalf("chain split into %d clusters, want 1", res.NumClusters)
	}
	if res.NoiseCount() != 0 {
		t.Fatalf("chain produced %d noise points, want 0", res.NoiseCount())
	}
}

// TestDBSCANParallelBorderTieBreak pins the subtle case: a border point
// within ε of core points from two different clusters must join the
// lower-numbered cluster, exactly as the sequential expansion order decides.
func TestDBSCANParallelBorderTieBreak(t *testing.T) {
	origin := geo.Point{Lat: 1.3, Lon: 103.8}
	at := func(east float64) geo.Point { return geo.Offset(origin, east, 0) }
	// eps 10, minPts 4. Two mirrored arms around a contested point at x=0:
	// the cores at ±9 each lean on two anchors at ±18 (beyond the contested
	// point's reach), so the x=0 point sees only {core, self, core} = 3
	// neighbours — a border of BOTH clusters, never core, while the cores
	// sit 18 m apart and stay unlinked.
	pts := []geo.Point{
		at(-18), at(-18), // left anchors (borders of cluster 0)
		at(-9),         // left core
		at(18), at(18), // right anchors (borders of cluster 1)
		at(9), // right core
		at(0), // contested border point
	}
	p := Params{EpsMeters: 10, MinPoints: 4}
	checkAllVariants(t, "border-tie", pts, p)
	res, err := DBSCANParallel(pts, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 {
		t.Fatalf("%d clusters, want 2", res.NumClusters)
	}
	if got := res.Labels[len(pts)-1]; got != 0 {
		t.Fatalf("contested border point joined cluster %d, want 0 (first-expanded)", got)
	}
}

func TestDBSCANParallelValidation(t *testing.T) {
	if _, err := DBSCANParallel(nil, Params{EpsMeters: 0, MinPoints: 5}, 4); err == nil {
		t.Error("eps=0 accepted")
	}
}

func TestSweepParallelMatchesSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var pts []geo.Point
	for i := 0; i < 10; i++ {
		c := geo.Point{Lat: 1.24 + rng.Float64()*0.2, Lon: 103.65 + rng.Float64()*0.3}
		pts = append(pts, blob(rng, c, 40+rng.Intn(60), 7)...)
	}
	pts = append(pts, uniformNoise(rng, 250)...)
	eps := []float64{5, 10, 15, 20}
	minPts := []int{25, 50, 100, 150}
	want, err := Sweep(pts, eps, minPts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range testWorkerCounts {
		got, err := SweepParallel(pts, eps, minPts, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d cells, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: cell %d = %+v, want %+v", workers, i, got[i], want[i])
			}
		}
	}
}
