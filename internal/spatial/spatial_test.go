package spatial

import (
	"math/rand"
	"sort"
	"testing"

	"taxiqueue/internal/geo"
)

func randomPoints(n int, seed int64) []geo.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{
			Lat: 1.22 + rng.Float64()*0.25,
			Lon: 103.60 + rng.Float64()*0.42,
		}
	}
	return pts
}

// clusteredPoints mimics the pickup-event distribution: dense blobs plus
// background noise, which stresses grid cells unevenly.
func clusteredPoints(n int, seed int64) []geo.Point {
	rng := rand.New(rand.NewSource(seed))
	centers := randomPoints(20, seed+1)
	pts := make([]geo.Point, n)
	for i := range pts {
		if rng.Float64() < 0.8 {
			c := centers[rng.Intn(len(centers))]
			pts[i] = geo.Offset(c, rng.NormFloat64()*20, rng.NormFloat64()*20)
		} else {
			pts[i] = geo.Point{
				Lat: 1.22 + rng.Float64()*0.25,
				Lon: 103.60 + rng.Float64()*0.42,
			}
		}
	}
	return pts
}

func sortedIDs(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func indexesUnderTest(pts []geo.Point) map[string]Index {
	return map[string]Index{
		"grid15":  NewGrid(pts, 15),
		"grid100": NewGrid(pts, 100),
	}
}

func TestIndexesMatchLinearWithin(t *testing.T) {
	pts := clusteredPoints(3000, 11)
	ref := NewLinear(pts)
	rng := rand.New(rand.NewSource(12))
	for name, idx := range indexesUnderTest(pts) {
		if idx.Len() != len(pts) {
			t.Fatalf("%s: Len = %d, want %d", name, idx.Len(), len(pts))
		}
		for q := 0; q < 50; q++ {
			center := pts[rng.Intn(len(pts))]
			radius := 5 + rng.Float64()*500
			want := sortedIDs(ref.Within(center, radius, nil))
			got := sortedIDs(idx.Within(center, radius, nil))
			if !equalIDs(got, want) {
				t.Fatalf("%s: Within(%v, %.1f) mismatch: got %d ids, want %d",
					name, center, radius, len(got), len(want))
			}
		}
	}
}

func TestIndexesMatchLinearRange(t *testing.T) {
	pts := clusteredPoints(3000, 21)
	ref := NewLinear(pts)
	rng := rand.New(rand.NewSource(22))
	for name, idx := range indexesUnderTest(pts) {
		for q := 0; q < 50; q++ {
			a := pts[rng.Intn(len(pts))]
			rect := geo.RectAround(a, 20+rng.Float64()*2000)
			want := sortedIDs(ref.Range(rect, nil))
			got := sortedIDs(idx.Range(rect, nil))
			if !equalIDs(got, want) {
				t.Fatalf("%s: Range mismatch: got %d ids, want %d", name, len(got), len(want))
			}
		}
	}
}

func TestWithinIncludesCenterPoint(t *testing.T) {
	pts := randomPoints(500, 31)
	for name, idx := range indexesUnderTest(pts) {
		for i := 0; i < 20; i++ {
			got := idx.Within(pts[i], 0.5, nil)
			found := false
			for _, id := range got {
				if id == i {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s: Within around point %d does not include itself", name, i)
			}
		}
	}
}

func TestEmptyIndexes(t *testing.T) {
	for name, idx := range indexesUnderTest(nil) {
		if idx.Len() != 0 {
			t.Errorf("%s: empty Len = %d", name, idx.Len())
		}
		if got := idx.Within(geo.Point{Lat: 1.3, Lon: 103.8}, 100, nil); len(got) != 0 {
			t.Errorf("%s: empty Within returned %v", name, got)
		}
		if got := idx.Range(geo.RectAround(geo.Point{Lat: 1.3, Lon: 103.8}, 100), nil); len(got) != 0 {
			t.Errorf("%s: empty Range returned %v", name, got)
		}
	}
}

func TestSinglePoint(t *testing.T) {
	pts := []geo.Point{{Lat: 1.3, Lon: 103.8}}
	for name, idx := range indexesUnderTest(pts) {
		got := idx.Within(pts[0], 1, nil)
		if len(got) != 1 || got[0] != 0 {
			t.Errorf("%s: single-point Within = %v", name, got)
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	p := geo.Point{Lat: 1.3, Lon: 103.8}
	pts := []geo.Point{p, p, p, p, p}
	for name, idx := range indexesUnderTest(pts) {
		got := idx.Within(p, 1, nil)
		if len(got) != 5 {
			t.Errorf("%s: duplicate-point Within returned %d ids, want 5", name, len(got))
		}
	}
}

func TestWithinAppendsToDst(t *testing.T) {
	pts := randomPoints(100, 41)
	idx := NewGrid(pts, 50)
	dst := []int{-1}
	got := idx.Within(pts[0], 100, dst)
	if len(got) < 1 || got[0] != -1 {
		t.Fatal("Within did not append to dst")
	}
}

func TestGridDefaultCellSize(t *testing.T) {
	// Non-positive cell size must not panic and must still be correct.
	pts := randomPoints(200, 61)
	idx := NewGrid(pts, 0)
	ref := NewLinear(pts)
	want := sortedIDs(ref.Within(pts[0], 200, nil))
	got := sortedIDs(idx.Within(pts[0], 200, nil))
	if !equalIDs(got, want) {
		t.Fatal("grid with default cell size returns wrong results")
	}
}

func benchIndexes(b *testing.B, n int) map[string]Index {
	pts := clusteredPoints(n, 99)
	return map[string]Index{
		"linear": NewLinear(pts),
		"grid":   NewGrid(pts, 15),
	}
}

func BenchmarkWithin10k(b *testing.B) {
	idxs := benchIndexes(b, 10000)
	center := geo.Point{Lat: 1.3, Lon: 103.8}
	for _, name := range []string{"linear", "grid"} {
		idx := idxs[name]
		b.Run(name, func(b *testing.B) {
			var dst []int
			for i := 0; i < b.N; i++ {
				dst = idx.Within(center, 15, dst[:0])
			}
		})
	}
}
