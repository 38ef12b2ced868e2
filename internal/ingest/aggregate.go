package ingest

import (
	"sync"
	"sync/atomic"
	"time"

	"taxiqueue/internal/core"
	"taxiqueue/internal/stream"
)

// cellKey addresses one (spot, slot) cell.
type cellKey struct{ spot, slot int }

// cell is one merged (spot, slot): raw statistics while shards are still
// closing, then the computed context once first published.
type cell struct {
	stats    core.SlotStats
	label    core.QueueType
	feats    core.SlotFeatures
	closedAt time.Time // when the first shard closing arrived
	done     bool
}

// aggregator merges per-shard slot closings into served contexts. Because
// core.SlotStats merging is exact (sums and concatenations, with
// departure ends re-sorted at feature time), the merged context equals what
// one engine over the whole fleet would have produced.
//
// Writers (shard workers delivering SlotClosed events and watermark
// advances) coordinate through mu; readers never touch it. Each time the
// cross-shard finality watermark advances, the writer that moved it
// rebuilds an immutable Snapshot of every final cell and swaps it into pub
// — the RCU publish. The query path is Service.Context/Label, which load
// pub once and read plain memory; the mutex-guarded path survives as
// Service.ContextLocked, the reference implementation the equivalence
// tests and serve benchmarks compare against.
//
// Cells exist only for (spot, slot) pairs a shard actually fed: a read of a
// never-fed pair is served the empty context without allocating, so a
// scraper walking the whole grid cannot grow the map. The live cell count
// is exported as the ingest_aggregator_cells gauge.
type aggregator struct {
	grid core.SlotGrid
	ths  []core.Thresholds
	amp  core.Amplification
	met  *metrics

	// pub is the RCU-published immutable view; never nil after init().
	pub atomic.Pointer[Snapshot]

	mu    sync.Mutex
	cells map[cellKey]*cell
	// live is the latest online-discovered spot list, carried verbatim into
	// every snapshot publish (nil when live discovery is off).
	live []core.LiveSpot
}

// init publishes the epoch-1 snapshot covering finalBelow slots (0 for a
// fresh service; the replayed watermark after WAL recovery).
func (a *aggregator) init(finalBelow int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.publish(finalBelow)
}

// add merges every SlotClosed event's raw statistics.
func (a *aggregator) add(events []stream.Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range events {
		ev := &events[i]
		if ev.Kind != stream.SlotClosed {
			continue
		}
		k := cellKey{ev.Spot, ev.Slot}
		c := a.cells[k]
		if c == nil {
			c = &cell{closedAt: time.Now()}
			a.cells[k] = c
		}
		c.stats.Merge(&ev.Stats)
	}
}

// advance republishes if the cross-shard watermark moved past the current
// snapshot. Called by a shard worker after it raised its own watermark;
// minClosed is the service-wide minimum at that instant. The re-check
// under mu makes concurrent advances from racing shards safe: each publish
// covers at least its own observation, epochs stay strictly increasing,
// and a conservative (older) minClosed just publishes nothing.
func (a *aggregator) advance(minClosed int) {
	if minClosed > a.grid.Slots {
		minClosed = a.grid.Slots
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if minClosed <= a.pub.Load().FinalBelow {
		return
	}
	a.publish(minClosed)
}

// publishLive swaps in a new live-discovered spot list and republishes at
// the current finality watermark. advance() refuses to republish when the
// watermark hasn't moved, so live-spot churn needs its own entry point —
// the epoch still bumps, which is what invalidates serve-side render
// caches keyed on the snapshot pointer.
func (a *aggregator) publishLive(spots []core.LiveSpot) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.live = spots
	a.publish(a.pub.Load().FinalBelow)
}

// context returns the merged features and label for a final (spot, slot),
// computing and caching them on first read — the pre-snapshot locked read
// path, retained as the reference implementation.
func (a *aggregator) context(spot, slot int) (core.SlotFeatures, core.QueueType) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := a.contextLocked(spot, slot, time.Now())
	return c.Features, c.Label
}

// cellCount is the ingest_aggregator_cells gauge read.
func (a *aggregator) cellCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.cells)
}
