// Package cluster implements the density-based clustering used for queue
// spot detection (§4.3): DBSCAN (Ester et al., KDD 1996) over GPS points,
// computed by cell-based passes over a grid of ε/√2 sub-cells (cells.go),
// with the textbook loop over an O(n²) neighbour search kept as the
// reference, plus the parameter-sweep helper behind Fig. 6.
package cluster

import (
	"fmt"

	"taxiqueue/internal/geo"
	"taxiqueue/internal/spatial"
)

// Noise is the cluster label DBSCAN assigns to points that belong to no
// cluster.
const Noise = -1

// Result is the outcome of a DBSCAN run.
type Result struct {
	// Labels[i] is the cluster number of input point i (0-based), or Noise.
	Labels []int
	// NumClusters is the number of clusters found.
	NumClusters int
}

// Centroids returns one centroid per cluster, indexed by cluster number.
func (r Result) Centroids(pts []geo.Point) []geo.Point {
	if r.NumClusters == 0 {
		return nil
	}
	sums := make([]geo.Point, r.NumClusters)
	counts := make([]int, r.NumClusters)
	for i, lbl := range r.Labels {
		if lbl == Noise {
			continue
		}
		sums[lbl].Lat += pts[i].Lat
		sums[lbl].Lon += pts[i].Lon
		counts[lbl]++
	}
	out := make([]geo.Point, r.NumClusters)
	for c := range out {
		if counts[c] > 0 {
			out[c] = geo.Point{Lat: sums[c].Lat / float64(counts[c]), Lon: sums[c].Lon / float64(counts[c])}
		}
	}
	return out
}

// ClusterSizes returns the member count of each cluster.
func (r Result) ClusterSizes() []int {
	sizes := make([]int, r.NumClusters)
	for _, lbl := range r.Labels {
		if lbl != Noise {
			sizes[lbl]++
		}
	}
	return sizes
}

// NoiseCount returns the number of noise points.
func (r Result) NoiseCount() int {
	n := 0
	for _, lbl := range r.Labels {
		if lbl == Noise {
			n++
		}
	}
	return n
}

// Params are the two DBSCAN parameters discussed in §6.1.2: eps (meters)
// and min-points.
type Params struct {
	EpsMeters float64 // neighbourhood radius ε_d
	MinPoints int     // density threshold p_d (neighbourhood includes the point itself)
}

// Validate returns an error when the parameters are unusable.
func (p Params) Validate() error {
	if p.EpsMeters <= 0 {
		return fmt.Errorf("cluster: eps must be positive, got %g", p.EpsMeters)
	}
	if p.MinPoints < 1 {
		return fmt.Errorf("cluster: min-points must be >= 1, got %d", p.MinPoints)
	}
	return nil
}

// DBSCAN clusters pts with the cell-based passes (see cells.go) on the
// calling goroutine. This is the production entry point.
func DBSCAN(pts []geo.Point, p Params) (Result, error) {
	return DBSCANParallel(pts, p, 1)
}

// DBSCANNaive is the textbook control loop over an O(n²) neighbour search,
// kept as the correctness reference and benchmark baseline.
func DBSCANNaive(pts []geo.Point, p Params) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	return run(pts, p, spatial.NewLinear(pts)), nil
}

const unvisited = -2

// run is the classic DBSCAN control loop with an explicit seed queue.
// Cluster numbers are assigned in order of the first core point scanned,
// which makes results deterministic for a fixed input order.
func run(pts []geo.Point, p Params, idx spatial.Index) Result {
	labels := make([]int, len(pts))
	for i := range labels {
		labels[i] = unvisited
	}
	next := 0
	var neighbours, seeds []int
	for i := range pts {
		if labels[i] != unvisited {
			continue
		}
		neighbours = idx.Within(pts[i], p.EpsMeters, neighbours[:0])
		if len(neighbours) < p.MinPoints {
			labels[i] = Noise
			continue
		}
		c := next
		next++
		labels[i] = c
		seeds = append(seeds[:0], neighbours...)
		for len(seeds) > 0 {
			j := seeds[len(seeds)-1]
			seeds = seeds[:len(seeds)-1]
			switch labels[j] {
			case Noise:
				labels[j] = c // border point
				continue
			case unvisited:
				labels[j] = c
			default:
				continue // already claimed by this or another cluster
			}
			neighbours = idx.Within(pts[j], p.EpsMeters, neighbours[:0])
			if len(neighbours) >= p.MinPoints {
				for _, k := range neighbours {
					if labels[k] == unvisited || labels[k] == Noise {
						seeds = append(seeds, k)
					}
				}
			}
		}
	}
	return Result{Labels: labels, NumClusters: next}
}

// SweepCell is one (eps, minPts) entry of a parameter sweep.
type SweepCell struct {
	Params      Params
	NumClusters int
	NoisePoints int
}

// SweepParallel runs DBSCAN for the cross product of eps and minPts values
// and returns one cell per pair, in row-major (eps-major) order. This is
// the computation behind Fig. 6. The sub-cell grid depends only on eps, so
// one grid per eps value is built and reused across the whole minPts axis;
// the (eps, minPts) cells are fanned out over a worker pool, each run on
// one goroutine. Cell order and contents are the same for any worker
// count; workers <= 0 uses GOMAXPROCS.
func SweepParallel(pts []geo.Point, epsMeters []float64, minPts []int, workers int) ([]SweepCell, error) {
	for _, eps := range epsMeters {
		for _, mp := range minPts {
			if err := (Params{EpsMeters: eps, MinPoints: mp}).Validate(); err != nil {
				return nil, err
			}
		}
	}
	workers = capWorkers(workers)
	out := make([]SweepCell, len(epsMeters)*len(minPts))
	grids := make([]*cells, len(epsMeters))
	fanOut(len(epsMeters), 1, workers, func(row, _ int) { grids[row] = newCells(pts, epsMeters[row]) })
	fanOut(len(out), 1, workers, func(i, _ int) {
		row, col := i/len(minPts), i%len(minPts)
		res := label(grids[row], minPts[col], 1)
		out[i] = SweepCell{
			Params:      Params{EpsMeters: epsMeters[row], MinPoints: minPts[col]},
			NumClusters: res.NumClusters,
			NoisePoints: res.NoiseCount(),
		}
	})
	return out, nil
}
