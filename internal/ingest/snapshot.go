package ingest

import (
	"time"

	"taxiqueue/internal/core"
)

// CellContext is one (spot, slot) cell of a published snapshot: the merged
// §5.2 features and the classified queue context.
type CellContext struct {
	Features core.SlotFeatures
	Label    core.QueueType
}

// Snapshot is an immutable, mutually consistent view of everything the
// read path serves: the cross-shard finality watermark and the context of
// every final (spot, slot) cell. The service republishes a fresh Snapshot
// via an atomic pointer swap each time the watermark advances (RCU style),
// so query handlers do zero locking — they load the current pointer once
// and read plain memory that can never change underneath them.
//
// Consistency contract: every cell with slot < FinalBelow is filled and
// final (no shard can still contribute to it); Epoch increases by exactly
// one per publish; two reads that observe the same Snapshot pointer
// observe byte-identical state. Staleness is bounded by the stream
// engine's one-slot close lag plus the publish itself (same-goroutine with
// the closing shard), so a snapshot is never older than one slot-close.
type Snapshot struct {
	// Epoch is the publish sequence number, strictly increasing.
	Epoch uint64
	// FinalBelow is the cross-shard finality watermark: every slot with
	// index < FinalBelow is final in every shard.
	FinalBelow int
	// At is the wall-clock publish instant (snapshot age = now - At).
	At time.Time
	// Spots and Slots give the grid dimensions the ctx array is laid
	// out over.
	Spots, Slots int

	// ctx holds the final cells, row-major [spot*FinalBelow + slot];
	// only slots < FinalBelow are present.
	ctx []CellContext

	// live holds the online-discovered queue spots (with lifecycle state)
	// as of this publish — nil when live discovery is disabled. The slice
	// is immutable once published, like everything else here.
	live []core.LiveSpot
}

// FinalSnapshot builds the snapshot of a completed analysis: every cell of
// the spots × slots grid is final (FinalBelow == Slots) and its context is
// read once from at — the same cell callback HistoryAppender uses, so a
// batch core.Result publishes through its Cell method. It carries no
// live-discovered spots.
func FinalSnapshot(spots, slots int, at func(spot, slot int) (core.SlotFeatures, core.QueueType)) *Snapshot {
	s := &Snapshot{
		Epoch:      1,
		FinalBelow: slots,
		At:         time.Now(),
		Spots:      spots,
		Slots:      slots,
		ctx:        make([]CellContext, spots*slots),
	}
	for spot := 0; spot < spots; spot++ {
		for slot := 0; slot < slots; slot++ {
			f, l := at(spot, slot)
			s.ctx[spot*slots+slot] = CellContext{Features: f, Label: l}
		}
	}
	return s
}

// Live returns the online-discovered queue spots current at this snapshot,
// sorted by window support (desc, ties by position). The returned slice is
// shared and must not be mutated. Empty when live discovery is off.
func (s *Snapshot) Live() []core.LiveSpot { return s.live }

// Context returns the merged features and label for (spot, slot); ok is
// false while any shard could still contribute to the slot or the indexes
// are out of range — exactly the gating the locked read path applied.
func (s *Snapshot) Context(spot, slot int) (core.SlotFeatures, core.QueueType, bool) {
	if spot < 0 || spot >= s.Spots || slot < 0 || slot >= s.Slots || slot >= s.FinalBelow {
		return core.SlotFeatures{}, core.Unidentified, false
	}
	c := &s.ctx[spot*s.FinalBelow+slot]
	return c.Features, c.Label, true
}

// Label is Context without the features.
func (s *Snapshot) Label(spot, slot int) (core.QueueType, bool) {
	_, l, ok := s.Context(spot, slot)
	return l, ok
}

// publish rebuilds the immutable view and swaps it in. Callers must hold
// a.mu; finalBelow must already be clamped to [0, grid.Slots]. Contexts of
// newly final cells are computed here (amortized: a cell is classified
// once, then copied by reference-free value into each later snapshot), so
// the read path never computes anything.
func (a *aggregator) publish(finalBelow int) {
	var lastEpoch uint64
	if old := a.pub.Load(); old != nil {
		lastEpoch = old.Epoch
	}
	now := time.Now()
	snap := &Snapshot{
		Epoch:      lastEpoch + 1,
		FinalBelow: finalBelow,
		At:         now,
		Spots:      len(a.ths),
		Slots:      a.grid.Slots,
		ctx:        make([]CellContext, len(a.ths)*finalBelow),
		live:       a.live,
	}
	for spot := 0; spot < snap.Spots; spot++ {
		row := snap.ctx[spot*finalBelow : (spot+1)*finalBelow]
		for slot := 0; slot < finalBelow; slot++ {
			row[slot] = a.contextLocked(spot, slot, now)
		}
	}
	a.pub.Store(snap)
	if a.met != nil {
		a.met.snapshotEpochs.Inc()
		a.met.snapshotFinal.Set(int64(finalBelow))
	}
}

// contextLocked returns (computing and caching on first need) the context
// of one final cell. Callers must hold a.mu.
func (a *aggregator) contextLocked(spot, slot int, now time.Time) CellContext {
	c := a.cells[cellKey{spot, slot}]
	if c == nil {
		return CellContext{Label: core.ClassifyCell(core.SlotFeatures{}, a.ths[spot])}
	}
	if !c.done {
		c.feats = c.stats.Features(a.grid.SlotLen, a.amp)
		c.label = core.ClassifyCell(c.feats, a.ths[spot])
		c.stats = core.SlotStats{} // raw stats are spent
		c.done = true
		if a.met != nil && !c.closedAt.IsZero() {
			// With eager publication the serve lag is close-to-publish, not
			// close-to-first-read: the cell is ready to serve from here on.
			a.met.serveLag.Observe(now.Sub(c.closedAt).Seconds())
		}
	}
	return CellContext{Features: c.feats, Label: c.label}
}
