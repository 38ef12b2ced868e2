// Package geo provides the geographic primitives used throughout the queue
// detection system: WGS-84 points, great-circle and fast equirectangular
// distances, a prepared radius test, destination points and bounding
// boxes.
//
// All distances are in meters, all angles in degrees unless stated
// otherwise. Latitudes are positive north, longitudes positive east.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius used for all spherical
// computations. The value matches the IUGG mean radius.
const EarthRadiusMeters = 6371008.8

// Point is a WGS-84 coordinate.
type Point struct {
	Lat float64 // degrees, [-90, 90]
	Lon float64 // degrees, [-180, 180]
}

// String implements fmt.Stringer using 6 decimal places (~0.1 m resolution).
func (p Point) String() string {
	return fmt.Sprintf("(%.6f,%.6f)", p.Lat, p.Lon)
}

// Valid reports whether p lies within the legal WGS-84 coordinate ranges.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

func radians(deg float64) float64 { return deg * math.Pi / 180 }
func degrees(rad float64) float64 { return rad * 180 / math.Pi }

// Haversine returns the great-circle distance between a and b in meters.
func Haversine(a, b Point) float64 {
	lat1, lon1 := radians(a.Lat), radians(a.Lon)
	lat2, lon2 := radians(b.Lat), radians(b.Lon)
	dLat := lat2 - lat1
	dLon := lon2 - lon1
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * EarthRadiusMeters * math.Asin(math.Min(1, math.Sqrt(s)))
}

// Equirect returns the equirectangular-approximation distance between a and
// b in meters. It is accurate to well under 0.1% at city scale and several
// times faster than Haversine; DBSCAN and the spatial indexes use it.
func Equirect(a, b Point) float64 {
	x := radians(b.Lon-a.Lon) * math.Cos(radians((a.Lat+b.Lat)/2))
	y := radians(b.Lat - a.Lat)
	return EarthRadiusMeters * math.Hypot(x, y)
}

// Disc is a radius test prepared once for many points: Contains(p) reports
// exactly Equirect(center, p) <= radius, for every p. It compares the
// squared planar distance in degrees, scaled by the cosine of the center's
// latitude, and calls Equirect only inside a band around the radius.
//
// Why the band suffices: Equirect scales the longitude difference by the
// cosine of the pair's mean latitude, which differs from the center's
// cosine by at most half the latitude difference. Near the radius that
// moves the distance by a relative k/(2 cos φ) at most (k is the radius in
// radians, φ the center's latitude), so a band of k/cos φ, plus 1e-9 for
// rounding, decides every point outside it the way Equirect would. When
// the band would be 1/2 or wider, the radius is negative, or the center's
// latitude or the radius is not finite, every point takes the exact test.
type Disc struct {
	center  Point
	radius  float64
	cosLat  float64
	in, out float64 // squared degrees: inside below in, outside above out
}

// NewDisc prepares the test for Equirect(center, p) <= radiusMeters.
func NewDisc(center Point, radiusMeters float64) Disc {
	d := Disc{center: center, radius: radiusMeters, in: -1, out: math.Inf(1)}
	k := radiusMeters / EarthRadiusMeters
	cos := math.Cos(radians(center.Lat))
	band := k/cos + 1e-9
	if k >= 0 && cos > 0 && band < 0.5 {
		deg := degrees(k)
		d.cosLat = cos
		d.in = deg * (1 - band) * deg * (1 - band)
		d.out = deg * (1 + band) * deg * (1 + band)
	}
	return d
}

// Contains reports whether Equirect(center, p) <= radius.
func (d Disc) Contains(p Point) bool {
	x := (p.Lon - d.center.Lon) * d.cosLat
	y := p.Lat - d.center.Lat
	switch q := x*x + y*y; {
	case q < d.in:
		return true
	case q > d.out:
		return false
	}
	return Equirect(d.center, p) <= d.radius
}

// Destination returns the point reached by travelling distanceMeters from p
// along the given initial bearing (degrees clockwise from north).
func Destination(p Point, bearingDeg, distanceMeters float64) Point {
	lat1 := radians(p.Lat)
	lon1 := radians(p.Lon)
	brng := radians(bearingDeg)
	d := distanceMeters / EarthRadiusMeters
	lat2 := math.Asin(math.Sin(lat1)*math.Cos(d) + math.Cos(lat1)*math.Sin(d)*math.Cos(brng))
	lon2 := lon1 + math.Atan2(math.Sin(brng)*math.Sin(d)*math.Cos(lat1),
		math.Cos(d)-math.Sin(lat1)*math.Sin(lat2))
	return Point{Lat: degrees(lat2), Lon: math.Mod(degrees(lon2)+540, 360) - 180}
}

// Offset returns p displaced by the given east and north distances in
// meters, using the local tangent-plane approximation. It is exact enough
// for city-scale work.
func Offset(p Point, eastMeters, northMeters float64) Point {
	dLat := degrees(northMeters / EarthRadiusMeters)
	dLon := degrees(eastMeters / (EarthRadiusMeters * math.Cos(radians(p.Lat))))
	return Point{Lat: p.Lat + dLat, Lon: p.Lon + dLon}
}

// Rect is a latitude/longitude axis-aligned bounding box.
// MinLat <= MaxLat and MinLon <= MaxLon; rectangles never cross the
// antimeridian (Singapore-scale deployments do not need that).
type Rect struct {
	MinLat, MinLon, MaxLat, MaxLon float64
}

// Contains reports whether p lies inside r (inclusive of edges).
func (r Rect) Contains(p Point) bool {
	return p.Lat >= r.MinLat && p.Lat <= r.MaxLat &&
		p.Lon >= r.MinLon && p.Lon <= r.MaxLon
}

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{Lat: (r.MinLat + r.MaxLat) / 2, Lon: (r.MinLon + r.MaxLon) / 2}
}

// Expand grows r by the given number of meters on every side.
func (r Rect) Expand(meters float64) Rect {
	dLat := degrees(meters / EarthRadiusMeters)
	// Use the latitude farthest from the equator for a conservative
	// longitude expansion so the expanded rect always covers the radius.
	lat := math.Max(math.Abs(r.MinLat), math.Abs(r.MaxLat))
	dLon := degrees(meters / (EarthRadiusMeters * math.Cos(radians(lat))))
	return Rect{
		MinLat: r.MinLat - dLat, MinLon: r.MinLon - dLon,
		MaxLat: r.MaxLat + dLat, MaxLon: r.MaxLon + dLon,
	}
}

// BoundingRect returns the smallest Rect containing every point in pts.
// It returns the zero Rect when pts is empty.
func BoundingRect(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{MinLat: pts[0].Lat, MaxLat: pts[0].Lat, MinLon: pts[0].Lon, MaxLon: pts[0].Lon}
	for _, p := range pts[1:] {
		r.MinLat = math.Min(r.MinLat, p.Lat)
		r.MaxLat = math.Max(r.MaxLat, p.Lat)
		r.MinLon = math.Min(r.MinLon, p.Lon)
		r.MaxLon = math.Max(r.MaxLon, p.Lon)
	}
	return r
}

// RectAround returns a bounding box guaranteed to contain the circle of the
// given radius (meters) around p. Used to pre-filter radius queries.
func RectAround(p Point, radiusMeters float64) Rect {
	return Rect{MinLat: p.Lat, MaxLat: p.Lat, MinLon: p.Lon, MaxLon: p.Lon}.Expand(radiusMeters)
}
