package hausdorff

import (
	"math"
	"math/rand"
	"testing"

	"taxiqueue/internal/geo"
)

func randomSet(n int, seed int64) []geo.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{Lat: 1.22 + rng.Float64()*0.25, Lon: 103.6 + rng.Float64()*0.42}
	}
	return pts
}

func TestIdenticalSetsZero(t *testing.T) {
	a := randomSet(150, 1)
	if d := Modified(a, a); d != 0 {
		t.Errorf("Modified(A,A) = %g, want 0", d)
	}
}

func TestSymmetry(t *testing.T) {
	a, b := randomSet(120, 2), randomSet(80, 3)
	if d1, d2 := Modified(a, b), Modified(b, a); math.Abs(d1-d2) > 1e-9 {
		t.Errorf("Modified not symmetric: %g vs %g", d1, d2)
	}
}

func TestKnownTwoPointDistance(t *testing.T) {
	p := geo.Point{Lat: 1.3, Lon: 103.8}
	q := geo.Destination(p, 90, 500)
	a := []geo.Point{p}
	b := []geo.Point{q}
	for name, f := range map[string]func(a, b []geo.Point) float64{
		"Modified": Modified, "DirectedModified": DirectedModified,
	} {
		if d := f(a, b); math.Abs(d-500) > 1 {
			t.Errorf("%s = %.2f, want ~500", name, d)
		}
	}
}

func TestDirectedAsymmetricExample(t *testing.T) {
	// A = {p}; B = {p, far}: h_mod(A,B)=0 but h_mod(B,A)=dist(far,p)/2.
	p := geo.Point{Lat: 1.3, Lon: 103.8}
	far := geo.Destination(p, 0, 2000)
	a := []geo.Point{p}
	b := []geo.Point{p, far}
	if d := DirectedModified(a, b); d > 1 {
		t.Errorf("h_mod(A,B) = %.2f, want ~0", d)
	}
	if d := DirectedModified(b, a); math.Abs(d-1000) > 1 {
		t.Errorf("h_mod(B,A) = %.2f, want ~1000", d)
	}
}

func TestModifiedRobustToSingleOutlier(t *testing.T) {
	// The modified distance averages, so a single far outlier in a
	// 100-point set moves MHD by ~dist/100, where the classical Hausdorff
	// distance (the maximum) would jump to dist.
	// Use a compact base set so the outlier is genuinely far from all of it.
	rng := rand.New(rand.NewSource(4))
	center := geo.Point{Lat: 1.3, Lon: 103.8}
	base := make([]geo.Point, 99)
	for i := range base {
		base[i] = geo.Offset(center, rng.NormFloat64()*200, rng.NormFloat64()*200)
	}
	outlier := geo.Destination(center, 45, 10000)
	a := append(append([]geo.Point(nil), base...), base[0])
	b := append(append([]geo.Point(nil), base...), outlier)
	mhd := Modified(a, b)
	if mhd > 1000 {
		t.Errorf("modified Hausdorff = %.0f, want small (outlier-robust)", mhd)
	}
}

func TestPerturbationScale(t *testing.T) {
	// Shifting every point by ~50 m should give MHD ~50 m, mirroring the
	// weekday-to-weekday stability numbers in Table 5.
	rng := rand.New(rand.NewSource(5))
	a := randomSet(180, 6)
	b := make([]geo.Point, len(a))
	for i, p := range a {
		b[i] = geo.Destination(p, rng.Float64()*360, 50)
	}
	mhd := Modified(a, b)
	if mhd < 20 || mhd > 80 {
		t.Errorf("MHD under 50 m jitter = %.1f, want within [20, 80]", mhd)
	}
}

func TestEmptySets(t *testing.T) {
	a := randomSet(10, 7)
	if d := DirectedModified(nil, a); d != 0 {
		t.Errorf("DirectedModified(empty, A) = %g, want 0", d)
	}
	if d := DirectedModified(a, nil); !math.IsInf(d, 1) {
		t.Errorf("DirectedModified(A, empty) = %g, want +Inf", d)
	}
	if d := Modified(nil, nil); d != 0 {
		t.Errorf("Modified(empty, empty) = %g, want 0", d)
	}
}

func TestMatrixShape(t *testing.T) {
	sets := [][]geo.Point{randomSet(40, 8), randomSet(40, 9), randomSet(40, 10)}
	m := Matrix(sets)
	if len(m) != 3 {
		t.Fatalf("matrix has %d rows", len(m))
	}
	for i := range m {
		if m[i][i] != 0 {
			t.Errorf("diagonal [%d][%d] = %g", i, i, m[i][i])
		}
		for j := range m {
			if m[i][j] != m[j][i] {
				t.Errorf("matrix not symmetric at (%d,%d)", i, j)
			}
			got := Modified(sets[i], sets[j])
			if math.Abs(m[i][j]-got) > 1e-9 {
				t.Errorf("matrix[%d][%d] = %g, direct = %g", i, j, m[i][j], got)
			}
		}
	}
}

func TestTranslationMonotonicity(t *testing.T) {
	// Larger rigid translation => larger (or equal) MHD.
	a := randomSet(100, 11)
	prev := 0.0
	for _, shift := range []float64{10, 50, 200, 1000} {
		b := make([]geo.Point, len(a))
		for i, p := range a {
			b[i] = geo.Destination(p, 90, shift)
		}
		d := Modified(a, b)
		if d < prev-1 {
			t.Errorf("MHD decreased as translation grew: %.1f -> %.1f at shift %.0f", prev, d, shift)
		}
		prev = d
	}
}

func BenchmarkModified200x200(b *testing.B) {
	x, y := randomSet(200, 12), randomSet(200, 13)
	for i := 0; i < b.N; i++ {
		Modified(x, y)
	}
}
