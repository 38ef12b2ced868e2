package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// cityPoint draws a point in the Singapore-scale frame where the library is
// used.
func cityPoint(rng *rand.Rand) Point {
	return Point{Lat: 1.22 + rng.Float64()*0.24, Lon: 103.6 + rng.Float64()*0.44}
}

// TestHaversineTriangleInequality on city-scale triples.
func TestHaversineTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, c := cityPoint(rng), cityPoint(rng), cityPoint(rng)
		return Haversine(a, c) <= Haversine(a, b)+Haversine(b, c)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestRectContainsItsOwnCenterAndCorners for random rects.
func TestRectContainsItsOwnCenterAndCorners(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := cityPoint(rng), cityPoint(rng)
		r := Rect{
			MinLat: math.Min(a.Lat, b.Lat), MinLon: math.Min(a.Lon, b.Lon),
			MaxLat: math.Max(a.Lat, b.Lat), MaxLon: math.Max(a.Lon, b.Lon),
		}
		return r.Contains(r.Center()) &&
			r.Contains(Point{r.MinLat, r.MinLon}) &&
			r.Contains(Point{r.MaxLat, r.MaxLon})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBoundingRectIsMinimal: the rect holds every point, and shrinking any
// side excludes one.
func TestBoundingRectIsMinimal(t *testing.T) {
	pts := []Point{{1.0, 103.0}, {1.3, 103.3}, {1.1, 103.2}}
	if br := BoundingRect(pts); br != (Rect{MinLat: 1.0, MinLon: 103.0, MaxLat: 1.3, MaxLon: 103.3}) {
		t.Errorf("BoundingRect = %+v", br)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		pts := make([]Point, 3+rng.Intn(40))
		for i := range pts {
			pts[i] = cityPoint(rng)
		}
		r := BoundingRect(pts)
		onMin, onMax := false, false
		for _, p := range pts {
			if !r.Contains(p) {
				t.Fatalf("BoundingRect misses %v", p)
			}
			if p.Lat == r.MinLat || p.Lon == r.MinLon {
				onMin = true
			}
			if p.Lat == r.MaxLat || p.Lon == r.MaxLon {
				onMax = true
			}
		}
		if !onMin || !onMax {
			t.Fatal("bounding rect has slack on some side")
		}
	}
}

// TestDiscMatchesEquirect: the prepared radius test answers exactly what
// Equirect(center, p) <= r answers, on random points around random centers,
// on points a few ulps either side of the radius and on either side of the
// band where the planar test hands over to Equirect, at latitudes up to
// ±80° and radii from 1 m to 30 km, and on NaN and infinite inputs.
func TestDiscMatchesEquirect(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	checked := 0
	check := func(c Point, r float64, p Point) {
		t.Helper()
		checked++
		want := Equirect(c, p) <= r
		if got := NewDisc(c, r).Contains(p); got != want {
			t.Fatalf("NewDisc(%v, %g).Contains(%v) = %v, Equirect %.17g: want %v",
				c, r, p, got, Equirect(c, p), want)
		}
	}
	center := func() Point {
		if rng.Intn(4) == 0 {
			return cityPoint(rng)
		}
		return Point{Lat: rng.Float64()*160 - 80, Lon: rng.Float64()*360 - 180}
	}
	radius := func() float64 { return math.Exp(rng.Float64() * math.Log(30000)) } // 1 m to 30 km
	nudge := func(v float64, ulps int) float64 {
		for ; ulps > 0; ulps-- {
			v = math.Nextafter(v, math.Inf(1))
		}
		for ; ulps < 0; ulps++ {
			v = math.Nextafter(v, math.Inf(-1))
		}
		return v
	}

	for i := 0; i < 20000; i++ {
		c, r := center(), radius()
		k := r / EarthRadiusMeters
		cos := math.Cos(radians(c.Lat))

		// Random points in a box three radii around the center, and anywhere.
		for j := 0; j < 4; j++ {
			check(c, r, Point{
				Lat: c.Lat + degrees(k)*(rng.Float64()*6-3),
				Lon: c.Lon + degrees(k)/cos*(rng.Float64()*6-3),
			})
		}
		check(c, r, Point{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180})

		// A point on the Equirect circle at a random bearing, then a few
		// ulps either side of it in latitude, longitude or both.
		th := rng.Float64() * 2 * math.Pi
		lat := c.Lat + degrees(k*math.Sin(th))
		lon := c.Lon + degrees(k*math.Cos(th)/math.Cos(radians((c.Lat+lat)/2)))
		for j := 0; j < 4; j++ {
			check(c, r, Point{Lat: nudge(lat, rng.Intn(9)-4), Lon: nudge(lon, rng.Intn(9)-4)})
		}

		// Points whose planar distance, scaled by the center's cosine, lies
		// within three band widths of the radius: where the planar test
		// decides alone and where it hands over to Equirect.
		band := k/cos + 1e-9
		for j := 0; j < 4; j++ {
			d := k * (1 + (rng.Float64()*6-3)*band)
			th := rng.Float64() * 2 * math.Pi
			check(c, r, Point{Lat: c.Lat + degrees(d*math.Sin(th)), Lon: c.Lon + degrees(d*math.Cos(th)/cos)})
		}
	}

	// NaN and infinite inputs: Equirect answers false or true and so must
	// the prepared test.
	nan, inf := math.NaN(), math.Inf(1)
	c := cityPoint(rng)
	for _, p := range []Point{
		{Lat: nan, Lon: c.Lon}, {Lat: c.Lat, Lon: nan}, {Lat: nan, Lon: nan},
		{Lat: inf, Lon: c.Lon}, {Lat: c.Lat, Lon: -inf}, {Lat: inf, Lon: inf},
	} {
		for _, r := range []float64{0, 1, 500, 30000, inf, nan, -1} {
			check(c, r, p)
			check(p, r, c)
			if Equirect(c, p) <= r && (math.IsNaN(p.Lat) || math.IsNaN(p.Lon)) {
				t.Fatalf("Equirect(%v, %v) <= %g holds for a NaN point", c, p, r)
			}
		}
	}
	for _, r := range []float64{0, 1, 500, inf, nan, -1} {
		check(c, r, c) // the center itself
	}
	t.Logf("%d points checked", checked)
}
