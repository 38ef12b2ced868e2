package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Singapore-ish reference points.
var (
	rafflesPlace = Point{Lat: 1.28392, Lon: 103.85134}
	changi       = Point{Lat: 1.35735, Lon: 103.98800}
	orchard      = Point{Lat: 1.30397, Lon: 103.83220}
)

func TestHaversineKnownDistance(t *testing.T) {
	// Raffles Place to Changi Airport is roughly 17 km.
	d := Haversine(rafflesPlace, changi)
	if d < 16000 || d > 19000 {
		t.Fatalf("Haversine(rafflesPlace, changi) = %.0f m, want ~17 km", d)
	}
}

func TestHaversineZero(t *testing.T) {
	if d := Haversine(orchard, orchard); d != 0 {
		t.Fatalf("distance to self = %g, want 0", d)
	}
}

func TestHaversineSymmetry(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{clampLat(lat1), clampLon(lon1)}
		b := Point{clampLat(lat2), clampLon(lon2)}
		d1, d2 := Haversine(a, b), Haversine(b, a)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func clampLat(v float64) float64 { return math.Mod(math.Abs(v), 90) }
func clampLon(v float64) float64 { return math.Mod(math.Abs(v), 180) }

func TestEquirectMatchesHaversineAtCityScale(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a := Point{Lat: 1.2 + rng.Float64()*0.3, Lon: 103.6 + rng.Float64()*0.4}
		b := Point{Lat: 1.2 + rng.Float64()*0.3, Lon: 103.6 + rng.Float64()*0.4}
		h, e := Haversine(a, b), Equirect(a, b)
		if h == 0 {
			continue
		}
		if rel := math.Abs(h-e) / h; rel > 1e-3 {
			t.Fatalf("Equirect relative error %.2e for %v-%v (h=%f e=%f)", rel, a, b, h, e)
		}
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		p := Point{Lat: 1.2 + rng.Float64()*0.3, Lon: 103.6 + rng.Float64()*0.4}
		brng := rng.Float64() * 360
		dist := rng.Float64() * 30000
		q := Destination(p, brng, dist)
		if got := Haversine(p, q); math.Abs(got-dist) > 0.01+dist*1e-9 {
			t.Fatalf("Destination distance %.4f, want %.4f", got, dist)
		}
		if dist > 1 {
			// The direction of q from p on the local tangent plane.
			x := (q.Lon - p.Lon) * math.Cos(radians(p.Lat))
			if gb := degrees(math.Atan2(x, q.Lat-p.Lat)); angleDiff(gb, brng) > 0.5 {
				t.Fatalf("Destination bearing %.3f, want %.3f", gb, brng)
			}
		}
	}
}

func angleDiff(a, b float64) float64 {
	d := math.Abs(math.Mod(a-b+540, 360) - 180)
	return d
}

func TestOffsetDistance(t *testing.T) {
	p := orchard
	q := Offset(p, 300, 400) // 3-4-5 triangle: 500 m
	if d := Haversine(p, q); math.Abs(d-500) > 1 {
		t.Fatalf("Offset distance = %.2f, want 500", d)
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{MinLat: 1.2, MinLon: 103.6, MaxLat: 1.5, MaxLon: 104.0}
	if !r.Contains(Point{1.3, 103.8}) {
		t.Error("interior point not contained")
	}
	if !r.Contains(Point{1.2, 103.6}) {
		t.Error("corner not contained (edges inclusive)")
	}
	if r.Contains(Point{1.6, 103.8}) {
		t.Error("outside point contained")
	}
}

func TestRectExpandCoversRadius(t *testing.T) {
	p := changi
	r := RectAround(p, 1000)
	// Sample points on the circle: all must be inside the rect.
	for deg := 0.0; deg < 360; deg += 15 {
		q := Destination(p, deg, 999)
		if !r.Contains(q) {
			t.Fatalf("RectAround misses circle point at bearing %.0f", deg)
		}
	}
}

func TestPointValid(t *testing.T) {
	valid := []Point{{0, 0}, {90, 180}, {-90, -180}, {1.3, 103.8}}
	for _, p := range valid {
		if !p.Valid() {
			t.Errorf("%v reported invalid", p)
		}
	}
	invalid := []Point{{91, 0}, {0, 181}, {-91, 0}, {0, -181}, {math.NaN(), 0}}
	for _, p := range invalid {
		if p.Valid() {
			t.Errorf("%v reported valid", p)
		}
	}
}

func BenchmarkHaversine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Haversine(rafflesPlace, changi)
	}
}

func BenchmarkEquirect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Equirect(rafflesPlace, changi)
	}
}
