// Package spatial provides the 2-D point index the system uses to tame the
// O(n²) neighbour searches of pickup-to-spot matching and the Hausdorff
// comparison: a uniform grid index (§4.3 of the paper suggests "the R-Tree
// based or grid based spatial index"; the grid is the one kept), plus a
// linear scan that is the correctness reference and the search under
// cluster.DBSCANNaive. DBSCAN itself runs on its own sub-cell grid.
//
// Both answer one query over a fixed point set: Within(p, r), the IDs of
// all points within r meters of p. Point IDs are the indexes into the
// point slice supplied at construction, so callers can carry arbitrary
// payloads in parallel slices.
package spatial

import (
	"math"

	"taxiqueue/internal/geo"
)

// Grid is a uniform-cell spatial hash over a fixed point set. Cell size is
// chosen by the caller; for radius queries the natural choice is the
// radius.
// After construction the grid is read-only and safe for concurrent queries.
type Grid struct {
	pts      []geo.Point
	origin   geo.Point
	cellDeg  float64          // cell size in degrees latitude
	cellDegX float64          // cell size in degrees longitude at the origin latitude
	cellID   map[uint64]int32 // cell key → index into spans
	spans    []gridSpan       // per-cell [lo, hi) range into ids
	ids      []int32          // all point IDs, grouped by cell
}

type gridSpan struct{ lo, hi int32 }

// NewGrid builds a grid index over pts with the given cell size in meters.
// The point slice is retained (not copied); it must not be mutated while
// the index is in use. Construction is two-pass: a counting pass sizes each
// cell, then IDs are placed into one backing array carved into per-cell
// spans — no per-cell append growth.
func NewGrid(pts []geo.Point, cellMeters float64) *Grid {
	if cellMeters <= 0 {
		cellMeters = 15
	}
	g := &Grid{pts: pts, cellID: make(map[uint64]int32, len(pts)/2+1)}
	if len(pts) > 0 {
		g.origin = geo.BoundingRect(pts).Center()
	}
	metersPerDegLat := 2 * math.Pi * geo.EarthRadiusMeters / 360
	g.cellDeg = cellMeters / metersPerDegLat
	g.cellDegX = cellMeters / (metersPerDegLat * math.Cos(g.origin.Lat*math.Pi/180))
	var counts []int32
	for _, p := range pts {
		key := g.cellKey(p)
		if id, ok := g.cellID[key]; ok {
			counts[id]++
		} else {
			g.cellID[key] = int32(len(counts))
			counts = append(counts, 1)
		}
	}
	g.spans = make([]gridSpan, len(counts))
	off := int32(0)
	for i, c := range counts {
		g.spans[i] = gridSpan{lo: off, hi: off} // hi advances during placement
		off += c
	}
	g.ids = make([]int32, len(pts))
	for i, p := range pts {
		sp := &g.spans[g.cellID[g.cellKey(p)]]
		g.ids[sp.hi] = int32(i)
		sp.hi++
	}
	return g
}

// cellIDs returns the point IDs of one cell, or nil when the cell is empty.
func (g *Grid) cellIDs(key uint64) []int32 {
	id, ok := g.cellID[key]
	if !ok {
		return nil
	}
	sp := g.spans[id]
	return g.ids[sp.lo:sp.hi]
}

func (g *Grid) cellCoords(p geo.Point) (int32, int32) {
	cy := int32(math.Floor((p.Lat - g.origin.Lat) / g.cellDeg))
	cx := int32(math.Floor((p.Lon - g.origin.Lon) / g.cellDegX))
	return cx, cy
}

func (g *Grid) cellKey(p geo.Point) uint64 {
	cx, cy := g.cellCoords(p)
	return uint64(uint32(cx))<<32 | uint64(uint32(cy))
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.pts) }

// Within appends to dst the IDs of all points within radiusMeters of
// center (inclusive) and returns the extended slice. One geo.Disc per
// query decides each candidate exactly as geo.Equirect(center, p) <=
// radiusMeters would.
func (g *Grid) Within(center geo.Point, radiusMeters float64, dst []int) []int {
	rect := geo.RectAround(center, radiusMeters)
	disc := geo.NewDisc(center, radiusMeters)
	loX, loY := g.cellCoords(geo.Point{Lat: rect.MinLat, Lon: rect.MinLon})
	hiX, hiY := g.cellCoords(geo.Point{Lat: rect.MaxLat, Lon: rect.MaxLon})
	for cx := loX; cx <= hiX; cx++ {
		for cy := loY; cy <= hiY; cy++ {
			key := uint64(uint32(cx))<<32 | uint64(uint32(cy))
			for _, id := range g.cellIDs(key) {
				if disc.Contains(g.pts[id]) {
					dst = append(dst, int(id))
				}
			}
		}
	}
	return dst
}

// Linear is the brute-force reference the grid is tested against, and the
// neighbour search of cluster.DBSCANNaive.
type Linear struct{ pts []geo.Point }

// NewLinear wraps pts in a brute-force index.
func NewLinear(pts []geo.Point) *Linear { return &Linear{pts: pts} }

// Within answers Grid.Within's query by testing every point.
func (l *Linear) Within(center geo.Point, radiusMeters float64, dst []int) []int {
	for i, p := range l.pts {
		if geo.Equirect(center, p) <= radiusMeters {
			dst = append(dst, i)
		}
	}
	return dst
}
