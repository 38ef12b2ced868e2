// Package cluster implements the density-based clustering used for queue
// spot detection (§4.3): DBSCAN (Ester et al., KDD 1996) over GPS points,
// with a naive O(n²) neighbour search and an index-accelerated variant, plus
// the parameter-sweep helper behind Fig. 6.
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

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

// DBSCAN clusters pts with an index-accelerated neighbour search (grid index
// with eps-sized cells). This is the production entry point.
func DBSCAN(pts []geo.Point, p Params) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	return run(pts, p, spatial.NewGrid(pts, p.EpsMeters)), nil
}

// DBSCANNaive is the textbook O(n²) variant, kept as the correctness
// reference and benchmark baseline.
func DBSCANNaive(pts []geo.Point, p Params) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	return run(pts, p, spatial.NewLinear(pts)), nil
}

const unvisited = -2

// sweepScratch is the per-worker reusable state of the DBSCAN control
// loop: the label array and the two grow-only work queues. One scratch
// serves an arbitrary sequence of runs over point sets of any size, so a
// parameter sweep allocates the loop state once per worker instead of once
// per (eps, minPts) cell.
type sweepScratch struct {
	labels     []int
	neighbours []int
	seeds      []int
}

// run is the classic DBSCAN control loop with an explicit seed queue.
// Cluster numbers are assigned in order of the first core point scanned,
// which makes results deterministic for a fixed input order.
func run(pts []geo.Point, p Params, idx spatial.Index) Result {
	return runScratch(pts, p, idx, new(sweepScratch))
}

// runScratch is run with caller-owned scratch. The returned Result aliases
// sc.labels: callers that reuse sc (the sweep) must summarize the Result
// before the next call; run hands each caller a fresh scratch, so the
// public entry points keep their owned-slice contract.
func runScratch(pts []geo.Point, p Params, idx spatial.Index, sc *sweepScratch) Result {
	if cap(sc.labels) < len(pts) {
		sc.labels = make([]int, len(pts))
	}
	labels := sc.labels[:len(pts)]
	for i := range labels {
		labels[i] = unvisited
	}
	next := 0
	neighbours, seedBuf := sc.neighbours, sc.seeds
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
		seeds := append(seedBuf[:0], neighbours...)
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
		seedBuf = seeds
	}
	sc.neighbours, sc.seeds = neighbours, seedBuf
	return Result{Labels: labels, NumClusters: next}
}

// SweepCell is one (eps, minPts) entry of a parameter sweep.
type SweepCell struct {
	Params      Params
	NumClusters int
	NoisePoints int
}

// Sweep runs DBSCAN for the cross product of eps and minPts values and
// returns one cell per pair, in row-major (eps-major) order. This is the
// computation behind Fig. 6. The grid index depends only on eps, so one
// index per eps value is built and reused across the whole minPts axis.
func Sweep(pts []geo.Point, epsMeters []float64, minPts []int) ([]SweepCell, error) {
	return SweepParallel(pts, epsMeters, minPts, 1)
}

// SweepParallel is Sweep with the (eps, minPts) cells fanned out over a
// worker pool. Cell order and contents are identical to Sweep for any
// worker count; workers <= 0 uses GOMAXPROCS.
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
	// Each cell summarizes its run before the scratch is reused, so one
	// label array and one pair of work queues serve a whole worker's share
	// of the sweep — the per-cell make([]int, len(pts)) churn this loop
	// used to pay is gone.
	cell := func(row, col int, idx spatial.Index, sc *sweepScratch) {
		p := Params{EpsMeters: epsMeters[row], MinPoints: minPts[col]}
		res := runScratch(pts, p, idx, sc)
		out[row*len(minPts)+col] = SweepCell{Params: p, NumClusters: res.NumClusters, NoisePoints: res.NoiseCount()}
	}
	if workers == 1 || len(out) < 2 {
		// One grid rebuilt in place per eps row, one scratch for the whole
		// sweep.
		var sc sweepScratch
		idx := new(spatial.Grid)
		for row := range epsMeters {
			idx.Reset(pts, epsMeters[row])
			for col := range minPts {
				cell(row, col, idx, &sc)
			}
		}
		return out, nil
	}
	// Stage 1: one index per eps value, built concurrently. Stage 2: fan the
	// full cell grid over the pool; the indexes are read-only by then, and
	// every cell lands at a fixed output position, so results are
	// deterministic for any worker count.
	grids := make([]spatial.Index, len(epsMeters))
	scratch := make([]sweepScratch, workers)
	fanOut := func(n int, task func(worker, i int)) {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < min(workers, n); w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					i := int(cursor.Add(1)) - 1
					if i >= n {
						return
					}
					task(w, i)
				}
			}(w)
		}
		wg.Wait()
	}
	fanOut(len(epsMeters), func(_, row int) { grids[row] = spatial.NewGrid(pts, epsMeters[row]) })
	fanOut(len(out), func(w, i int) { cell(i/len(minPts), i%len(minPts), grids[i/len(minPts)], &scratch[w]) })
	return out, nil
}
