package cluster

import (
	"runtime"
	"sync"
	"sync/atomic"

	"taxiqueue/internal/geo"
	"taxiqueue/internal/spatial"
)

// parallelMinPoints is the input size below which DBSCANParallel falls back
// to the sequential control loop: the fan-out overhead (goroutines, atomic
// block cursor) exceeds the clustering cost itself for tiny zones.
const parallelMinPoints = 512

// capWorkers clamps a worker request to the scheduler's parallelism:
// workers beyond GOMAXPROCS cannot run simultaneously, so the extra
// goroutines only add cursor contention and scheduling churn (on a
// single-core box an 8-worker request measured ~2× slower than
// sequential before this clamp — see EXPERIMENTS.md). workers <= 0 asks
// for full parallelism.
func capWorkers(workers int) int {
	if p := runtime.GOMAXPROCS(0); workers <= 0 || workers > p {
		return p
	}
	return workers
}

// DBSCANParallel clusters pts across a worker pool and produces labels
// byte-identical to the sequential DBSCAN for any worker count.
//
// The point set is partitioned into fixed-size index blocks handed out by an
// atomic cursor. Three passes, each fully parallel over blocks:
//
//  1. core detection — a point is core when its ε-neighbourhood (self
//     included) holds at least MinPoints members; coreness is independent of
//     visit order, so blocks need no coordination.
//  2. cluster structure — every core-core pair within ε lies in one cluster.
//     Workers union such pairs (cross-partition edges included) into a
//     lock-free disjoint-set whose roots converge to the minimum core index
//     of each component regardless of interleaving.
//  3. relabel + borders — components are numbered in ascending
//     first-core-index order, which is exactly the order the sequential scan
//     starts clusters; each non-core point takes the smallest cluster number
//     among its core neighbours (the sequential loop expands clusters fully,
//     one at a time, so the lowest-numbered adjacent cluster always claims a
//     border point first) or Noise when it has none.
//
// workers <= 0 uses GOMAXPROCS.
func DBSCANParallel(pts []geo.Point, p Params, workers int) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	workers = capWorkers(workers)
	idx := spatial.NewGrid(pts, p.EpsMeters)
	if workers == 1 || len(pts) < parallelMinPoints {
		return run(pts, p, idx), nil
	}
	return runParallel(pts, p, idx, workers), nil
}

// parallelBlockSize is the unit of work handed to workers: large enough to
// amortize the atomic cursor, small enough to balance skewed density.
const parallelBlockSize = 256

// parallelBlocks runs fn over [0, n) in fixed-size half-open ranges drawn
// from an atomic cursor by a pool of workers. Each worker owns one reusable
// neighbour scratch buffer threaded through its fn calls.
func parallelBlocks(n, workers int, fn func(lo, hi int, scratch []int) []int) {
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch []int
			for {
				lo := int(cursor.Add(parallelBlockSize)) - parallelBlockSize
				if lo >= n {
					return
				}
				scratch = fn(lo, min(lo+parallelBlockSize, n), scratch)
			}
		}()
	}
	wg.Wait()
}

// runParallel is the partition/merge DBSCAN described on DBSCANParallel.
func runParallel(pts []geo.Point, p Params, idx spatial.Index, workers int) Result {
	n := len(pts)
	isCore := make([]bool, n)

	// Pass 1: core detection. Writes are confined to each worker's block.
	parallelBlocks(n, workers, func(lo, hi int, buf []int) []int {
		for i := lo; i < hi; i++ {
			buf = idx.Within(pts[i], p.EpsMeters, buf[:0])
			isCore[i] = len(buf) >= p.MinPoints
		}
		return buf
	})

	// Pass 2: union core-core ε-edges. Each undirected edge is applied once,
	// from its lower endpoint, whichever partition holds the upper one.
	uf := newUnionFind(n)
	parallelBlocks(n, workers, func(lo, hi int, buf []int) []int {
		for i := lo; i < hi; i++ {
			if !isCore[i] {
				continue
			}
			buf = idx.Within(pts[i], p.EpsMeters, buf[:0])
			for _, j := range buf {
				if j > i && isCore[j] {
					uf.union(int32(i), int32(j))
				}
			}
		}
		return buf
	})

	// Number components by ascending first core index — the sequential
	// cluster order — and label core points.
	labels := make([]int, n)
	rootLabel := make([]int32, n)
	for i := range rootLabel {
		rootLabel[i] = -1
	}
	next := 0
	for i := 0; i < n; i++ {
		if !isCore[i] {
			continue
		}
		r := uf.find(int32(i))
		if rootLabel[r] < 0 {
			rootLabel[r] = int32(next)
			next++
		}
		labels[i] = int(rootLabel[r])
	}

	// Pass 3: borders and noise. A non-core point joins the lowest-numbered
	// cluster owning a core point within ε, or stays Noise.
	parallelBlocks(n, workers, func(lo, hi int, buf []int) []int {
		for i := lo; i < hi; i++ {
			if isCore[i] {
				continue
			}
			buf = idx.Within(pts[i], p.EpsMeters, buf[:0])
			best := int32(-1)
			for _, j := range buf {
				if !isCore[j] {
					continue
				}
				if l := rootLabel[uf.find(int32(j))]; best < 0 || l < best {
					best = l
				}
			}
			if best < 0 {
				labels[i] = Noise
			} else {
				labels[i] = int(best)
			}
		}
		return buf
	})

	return Result{Labels: labels, NumClusters: next}
}

// unionFind is a lock-free disjoint-set over point indexes. union attaches
// the larger root beneath the smaller, so each component's final root is its
// minimum member regardless of operation interleaving; find uses CAS path
// halving and is safe to call concurrently with unions.
type unionFind struct {
	parent []int32
}

func newUnionFind(n int) *unionFind {
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	return &unionFind{parent: parent}
}

func (u *unionFind) find(x int32) int32 {
	for {
		p := atomic.LoadInt32(&u.parent[x])
		if p == x {
			return x
		}
		gp := atomic.LoadInt32(&u.parent[p])
		if gp == p {
			return p
		}
		atomic.CompareAndSwapInt32(&u.parent[x], p, gp)
		x = gp
	}
}

func (u *unionFind) union(a, b int32) {
	for {
		ra, rb := u.find(a), u.find(b)
		if ra == rb {
			return
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		if atomic.CompareAndSwapInt32(&u.parent[rb], rb, ra) {
			return
		}
	}
}
