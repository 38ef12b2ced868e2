package cluster

import (
	"math"
	"math/rand"
	"testing"

	"taxiqueue/internal/geo"
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

// checkAllVariants runs the naive O(n²) reference, the sequential cell
// passes and the parallel variant at every worker count, demanding labels
// identical to the reference's throughout. The passes are also run
// directly at each worker count, so the small-input gate in DBSCANParallel
// cannot mask a merge bug.
func checkAllVariants(t *testing.T, name string, pts []geo.Point, p Params) {
	t.Helper()
	want, err := DBSCANNaive(pts, p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	seq, err := DBSCAN(pts, p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	assertLabelsEqual(t, name+"/sequential", want, seq)
	for _, workers := range testWorkerCounts {
		res, err := DBSCANParallel(pts, p, workers)
		if err != nil {
			t.Fatalf("%s/workers=%d: %v", name, workers, err)
		}
		assertLabelsEqual(t, name+"/parallel", want, res)
		if workers > 1 {
			direct := label(newCells(pts, p.EpsMeters), p.MinPoints, workers)
			assertLabelsEqual(t, name+"/passes", want, direct)
		}
	}
	// Sub-cells four times the side fail the clique check: the passes'
	// point-by-point paths must give the same labels.
	side := 4 * p.EpsMeters / math.Sqrt2 * 180 / math.Pi / geo.EarthRadiusMeters
	for _, workers := range []int{1, 4} {
		wide := label(newCellsOfSide(pts, p.EpsMeters, side), p.MinPoints, workers)
		assertLabelsEqual(t, name+"/wide sub-cells", want, wide)
	}
}

// TestDBSCANParallelMatchesSequentialRandom is the ISSUE's property test:
// randomized blob/noise/duplicate mixtures across parameter settings must
// label identically under every variant and worker count.
func TestDBSCANParallelMatchesSequentialRandom(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		pts, p := randomMixture(seed)
		checkAllVariants(t, "random", pts, p)
	}
}

// randomMixture is a randomized blob/noise/duplicate mixture and a
// parameter setting drawn from seed.
func randomMixture(seed int64) ([]geo.Point, Params) {
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
	// Shuffle so spatially adjacent points land in different sub-cell
	// blocks.
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts, Params{
		EpsMeters: []float64{8, 15, 25}[rng.Intn(3)],
		MinPoints: []int{3, 10, 30}[rng.Intn(3)],
	}
}

// TestExactEpsPairs: pairs of points ε apart, to within rounding, in
// eight directions and at every phase of the sub-cell grid, are linked
// exactly when geo.Equirect puts them within ε: no bound or reach may cut
// a pair the textbook loop keeps.
func TestExactEpsPairs(t *testing.T) {
	const eps = 15.0
	origin := geo.Point{Lat: 1.3, Lon: 103.8}
	var pts []geo.Point
	for i := 0; i < 1600; i++ {
		// Pairs 200 m apart; the base point's phase walks the sub-cell.
		base := geo.Offset(origin, float64(i%40)*200+float64(i)*0.137, float64(i/40)*200+float64(i)*0.291)
		theta := float64(i%8) * math.Pi / 4
		d := eps * (1 + float64(i%3-1)*1e-12)
		pts = append(pts, base, geo.Offset(base, d*math.Sin(theta), d*math.Cos(theta)))
	}
	checkAllVariants(t, "exact-eps pairs", pts, Params{EpsMeters: eps, MinPoints: 2})
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

// TestDBSCANOddGeometry: the sub-cell grid's bounds hold wherever the
// points are, not only near Singapore: at high latitude, across the
// equator, at a pole, beyond ±90°, mixed with points whose coordinates are
// not finite (within ε of nothing, themselves included), and at an ε far
// below the coordinates' rounding.
func TestDBSCANOddGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	around := func(c geo.Point, n int, sigma float64) []geo.Point {
		return blob(rng, c, n, sigma)
	}
	cases := []struct {
		name string
		pts  []geo.Point
		p    Params
	}{
		{"latitude 60", append(around(geo.Point{Lat: 60, Lon: 10}, 300, 8), around(geo.Point{Lat: 60.0003, Lon: 10}, 200, 8)...), Params{EpsMeters: 10, MinPoints: 8}},
		{"equator", around(geo.Point{Lat: 0, Lon: 103.8}, 400, 10), Params{EpsMeters: 12, MinPoints: 10}},
		{"pole", append(around(geo.Point{Lat: 89.9999, Lon: 0}, 200, 5), geo.Point{Lat: 90, Lon: 0}, geo.Point{Lat: 90, Lon: 179}), Params{EpsMeters: 15, MinPoints: 5}},
		{"beyond 90", []geo.Point{{Lat: 95, Lon: 1}, {Lat: 95, Lon: 1}, {Lat: 95.00001, Lon: 1}, {Lat: -100, Lon: 3}, {Lat: 1.3, Lon: 103.8}}, Params{EpsMeters: 15, MinPoints: 2}},
		{"wide", append(around(geo.Point{Lat: -40, Lon: -70}, 100, 20), around(geo.Point{Lat: 50, Lon: 100}, 100, 20)...), Params{EpsMeters: 30, MinPoints: 4}},
		{"tiny eps", around(geo.Point{Lat: 1.3, Lon: 103.8}, 200, 1e-7), Params{EpsMeters: 1e-7, MinPoints: 3}},
	}
	nan, inf := math.NaN(), math.Inf(1)
	odd := []geo.Point{{Lat: nan, Lon: 103.8}, {Lat: 1.3, Lon: nan}, {Lat: inf, Lon: 103.8}, {Lat: 1.3, Lon: -inf}, {Lat: nan, Lon: nan}}
	for _, c := range cases {
		checkAllVariants(t, c.name, c.pts, c.p)
		mixed := append(append([]geo.Point(nil), c.pts...), odd...)
		mixed = append(mixed, odd...)
		rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
		checkAllVariants(t, c.name+" with non-finite points", mixed, c.p)
	}
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

	// Mirrored, the eastern arm is cluster 0: the lower-numbered cluster
	// lies in a later sub-cell than the other.
	for i := range pts {
		pts[i] = at(-geo.Equirect(origin, pts[i]) * math.Copysign(1, pts[i].Lon-origin.Lon))
	}
	checkAllVariants(t, "border-tie-mirrored", pts, p)

	// The western cluster starts first (its anchors, now core, come first)
	// but its core next to the contested point comes after the eastern
	// core: scanning cores in index order meets cluster 1 first.
	pts = []geo.Point{
		at(-18), at(-18), at(-18), // western anchors, core
		at(9),          // eastern core
		at(18), at(18), // eastern anchors
		at(-9), // western core
		at(0),  // contested border point
	}
	checkAllVariants(t, "border-tie-late-core", pts, p)
}

// TestDBSCANUShape: two arms 8 m apart, joined only at the bottom, with
// ε = 4 m. Sub-cells wide enough to hold both arms hold two clusters'
// worth of core points until the bottom joins them, so linking them needs
// every core–core pair, not the first.
func TestDBSCANUShape(t *testing.T) {
	origin := geo.Point{Lat: 1.3, Lon: 103.8}
	var pts []geo.Point
	for y := 0.0; y <= 60; y += 3 {
		pts = append(pts, geo.Offset(origin, 0, y), geo.Offset(origin, 8, y))
	}
	for x := 3.0; x < 8; x += 3 {
		pts = append(pts, geo.Offset(origin, x, 0))
	}
	checkAllVariants(t, "U", pts, Params{EpsMeters: 4, MinPoints: 2})
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
	var want []SweepCell
	for _, e := range eps {
		for _, mp := range minPts {
			p := Params{EpsMeters: e, MinPoints: mp}
			res, err := DBSCANNaive(pts, p)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, SweepCell{Params: p, NumClusters: res.NumClusters, NoisePoints: res.NoiseCount()})
		}
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
