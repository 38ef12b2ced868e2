package cluster

import (
	"runtime"
	"sync"
	"sync/atomic"

	"taxiqueue/internal/geo"
)

// parallelMinPoints is the input size below which DBSCANParallel runs on
// one goroutine: the fan-out overhead (goroutines, atomic block cursor)
// exceeds the clustering cost itself for tiny zones.
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

// DBSCANParallel clusters pts with the cell-based passes (see cells.go)
// fanned out over a worker pool, and produces labels byte-identical to
// DBSCANNaive's for any worker count. Inputs under parallelMinPoints run
// on the calling goroutine. workers <= 0 uses GOMAXPROCS.
func DBSCANParallel(pts []geo.Point, p Params, workers int) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	workers = capWorkers(workers)
	if len(pts) < parallelMinPoints {
		workers = 1
	}
	return label(newCells(pts, p.EpsMeters), p.MinPoints, workers), nil
}

// fanOut runs fn over [0, n) in ranges of block indexes, drawn from an
// atomic cursor by up to workers goroutines; with one worker, in order on
// the calling goroutine.
func fanOut(n, block, workers int, fn func(lo, hi int)) {
	if workers = min(workers, (n+block-1)/block); workers <= 1 {
		for lo := 0; lo < n; lo += block {
			fn(lo, min(lo+block, n))
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(cursor.Add(int64(block))) - block
				if lo >= n {
					return
				}
				fn(lo, min(lo+block, n))
			}
		}()
	}
	wg.Wait()
}

// unionFind is a lock-free disjoint-set over point indexes. union attaches
// the larger root beneath the smaller, so each component's final root is its
// minimum member regardless of operation interleaving; find uses CAS path
// halving and is safe to call concurrently with unions.
type unionFind struct {
	parent []int32
}

func newUnionFind(n int) unionFind {
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	return unionFind{parent: parent}
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
