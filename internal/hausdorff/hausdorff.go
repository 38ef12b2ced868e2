// Package hausdorff implements the point-set distance §6.1.3 uses to
// measure day-to-day stability of the detected queue-spot sets: the
// modified Hausdorff distance of Dubuisson & Jain (ICPR 1994), which
// averages the nearest-neighbour distances where the classical Hausdorff
// distance takes their maximum.
//
// All distances are equirectangular meters (geo.Equirect).
package hausdorff

import (
	"math"

	"taxiqueue/internal/geo"
	"taxiqueue/internal/spatial"
)

// nearest returns the distance from p to the closest point indexed by idx,
// expanding a search radius geometrically so typical queries touch only a
// few grid cells.
func nearest(idx *spatial.Grid, pts []geo.Point, p geo.Point) float64 {
	if len(pts) == 0 {
		return math.Inf(1)
	}
	radius := 100.0 // meters; queue-spot sets are ~50 m apart on average
	var buf []int
	for {
		buf = idx.Within(p, radius, buf[:0])
		if len(buf) > 0 {
			best := math.Inf(1)
			for _, id := range buf {
				if d := geo.Equirect(p, pts[id]); d < best {
					best = d
				}
			}
			return best
		}
		radius *= 4
		if radius > 1e8 { // exceeded Earth scale: fall back to linear scan
			best := math.Inf(1)
			for _, q := range pts {
				if d := geo.Equirect(p, q); d < best {
					best = d
				}
			}
			return best
		}
	}
}

// DirectedModified returns the Dubuisson-Jain directed modified Hausdorff
// distance h_mod(A,B) = (1/|A|) Σ_{a∈A} min_{b∈B} d(a,b): the mean rather
// than the max of the nearest-neighbour distances, which is robust to
// outlier points (a single sporadic queue spot does not dominate).
func DirectedModified(a, b []geo.Point) float64 {
	if len(a) == 0 {
		return 0
	}
	idx := spatial.NewGrid(b, 200)
	sum := 0.0
	for _, p := range a {
		sum += nearest(idx, b, p)
	}
	return sum / float64(len(a))
}

// Modified returns the symmetric modified Hausdorff distance
// MHD(A,B) = max(h_mod(A,B), h_mod(B,A)), the measure behind Table 5.
func Modified(a, b []geo.Point) float64 {
	return math.Max(DirectedModified(a, b), DirectedModified(b, a))
}

// Matrix computes the symmetric MHD between every pair of the given point
// sets; Matrix(sets)[i][j] == Modified(sets[i], sets[j]). This is the shape
// of Table 5 (7 day-of-week spot sets).
func Matrix(sets [][]geo.Point) [][]float64 {
	n := len(sets)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := Modified(sets[i], sets[j])
			m[i][j], m[j][i] = d, d
		}
	}
	return m
}
