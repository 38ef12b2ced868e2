// Package stream is the online counterpart of the batch engine: the
// deployed system (§7.1) needs *real-time* queueing information, so this
// package ingests MDT records one at a time, runs the Pickup Extraction
// Algorithm incrementally per taxi, assigns completed pickup events to the
// (batch-detected) queue spots, accumulates the §5.2 slot features live,
// and emits a queue-context label once each time slot is complete.
//
// A slot is not final the moment the clock leaves it: a taxi that started
// waiting inside slot j may only complete its pickup (making the wait
// observable) one slot later. Slots therefore close with a one-slot lag —
// slot j is emitted when the clock enters slot j+2 — which bounds the
// publishing delay at one slot length while capturing almost every
// cross-slot wait. CurrentEstimate gives a zero-delay provisional answer.
//
// Spot locations and QCD thresholds change slowly, so — exactly like the
// deployed system — they come from the most recent batch run; only the
// per-slot context is computed online.
package stream

import (
	"time"

	"taxiqueue/internal/core"
	"taxiqueue/internal/mdt"
)

// EventKind tags what an Ingest call produced.
type EventKind uint8

const (
	// PickupDetected fires when a taxi's low-speed run commits as a slow
	// pickup event — at a known queue spot (Spot >= 0) or in open street
	// (Spot = -1), where it feeds live spot discovery.
	PickupDetected EventKind = iota
	// SlotClosed fires when a slot becomes final at a spot with activity:
	// the slot's features and label.
	SlotClosed
)

// Event is one analytics output of the online engine.
type Event struct {
	Kind EventKind
	Spot int // index into the Live engine's spot list; -1 on a pickup outside every spot's radius
	// PickupDetected:
	Pickup core.Pickup
	// SlotClosed:
	Slot     int
	Features core.SlotFeatures
	Label    core.QueueType
	// Stats carries the raw accumulator behind Features so a sharded
	// deployment can merge closings from engines that each saw only part
	// of the fleet (see core.SlotStats). The engine hands over ownership.
	Stats core.SlotStats
}

// assignRadiusMeters bounds pickup-to-spot matching: 2×ε, the batch
// engine's default.
const assignRadiusMeters = 30

// Config parameterizes the online engine. PEA runs at
// core.DefaultSpeedThresholdKmh.
type Config struct {
	// Spots are the batch-detected queue spots being watched.
	Spots []core.QueueSpot
	// Thresholds are the per-spot QCD thresholds from the batch run,
	// indexed like Spots.
	Thresholds []core.Thresholds
	// Grid is the slot partition for the streaming day.
	Grid core.SlotGrid
	// Amplify is the §6.2.1 coverage correction for the live feed.
	Amplify core.Amplification
}

// Live is the online engine. It is not safe for concurrent use; shard by
// taxi and merge events if parallel ingest is needed.
type Live struct {
	cfg     Config
	spotIdx *core.SpotIndex
	taxis   map[string]*core.PEA
	accs    []map[int]*core.SlotStats // per spot: open slots
	closed  int                       // all slots below this are final everywhere
	clock   time.Time                 // newest record time seen (the feed's clock)
}

// NewLive validates cfg and builds the engine.
func NewLive(cfg Config) *Live {
	if cfg.Amplify.Factor == 0 {
		cfg.Amplify = core.NoAmplification
	}
	l := &Live{
		cfg:     cfg,
		spotIdx: core.NewSpotIndex(cfg.Spots, assignRadiusMeters),
		taxis:   make(map[string]*core.PEA),
		accs:    make([]map[int]*core.SlotStats, len(cfg.Spots)),
	}
	for i := range l.accs {
		l.accs[i] = make(map[int]*core.SlotStats)
	}
	return l
}

// Ingest processes one record (records must be time-ordered per taxi and
// roughly time-ordered globally) and returns any analytics events it
// triggered.
func (l *Live) Ingest(rec mdt.Record) []Event {
	var events []Event
	if rec.Time.After(l.clock) {
		l.clock = rec.Time
	}
	// Finalize slots the clock has moved safely past (one-slot lag). A
	// record beyond the grid's end finalizes everything: without this the
	// day's last slots stayed provisional forever once the feed's clock
	// left the grid.
	if cur := l.cfg.Grid.Index(rec.Time); cur >= 0 {
		events = l.closeBelow(cur-1, events)
	} else if !rec.Time.Before(l.cfg.Grid.End()) {
		events = l.closeBelow(l.cfg.Grid.Slots, events)
	}
	// Incremental PEA for this taxi: the batch engine's state machine.
	st := l.taxis[rec.TaxiID]
	if st == nil {
		st = &core.PEA{}
		l.taxis[rec.TaxiID] = st
	}
	if pk, ok := st.Step(rec, core.DefaultSpeedThresholdKmh); ok {
		events = append(events, l.acceptPickup(pk))
	}
	return events
}

// closeBelow finalizes every open slot with index < limit, appending
// SlotClosed events in (slot, spot) order for determinism.
func (l *Live) closeBelow(limit int, events []Event) []Event {
	if limit <= l.closed {
		return events
	}
	for slot := l.closed; slot < limit; slot++ {
		for spot := range l.accs {
			if acc, ok := l.accs[spot][slot]; ok {
				events = append(events, l.finalize(spot, slot, acc))
				delete(l.accs[spot], slot)
			}
		}
	}
	l.closed = limit
	return events
}

// acceptPickup assigns a committed pickup to its nearest spot and folds its
// wait into the spot's slot accumulators. A pickup outside every spot's
// assignment radius is still reported (Spot = -1, nothing folded): the
// live spot-discovery window feeds on exactly those street pickups the
// batch spot list cannot account for.
func (l *Live) acceptPickup(pk core.Pickup) Event {
	best := l.spotIdx.Nearest(pk.Centroid)
	if pk.HasWait && best >= 0 {
		l.foldWait(best, pk.Wait)
	}
	return Event{Kind: PickupDetected, Spot: best, Pickup: pk}
}

// acc returns (creating if needed) the accumulator for (spot, slot); nil
// when the slot is already final or outside the grid.
func (l *Live) acc(spot, slot int) *core.SlotStats {
	if slot < l.closed || slot < 0 {
		return nil
	}
	a := l.accs[spot][slot]
	if a == nil {
		a = &core.SlotStats{}
		l.accs[spot][slot] = a
	}
	return a
}

// foldWait is the batch feature attribution (core.ComputeFeatures): the
// wait's arrival statistics go to the slot of its start, its departure
// statistics to the slot of its end. Only a street wait is an arrival, so
// only a street wait may open its start slot's accumulator.
func (l *Live) foldWait(spot int, w core.Wait) {
	if w.Street() {
		if a := l.acc(spot, l.cfg.Grid.Index(w.Start)); a != nil {
			a.AddArrival(w)
		}
	}
	if a := l.acc(spot, l.cfg.Grid.Index(w.End)); a != nil {
		a.AddDeparture(w)
	}
}

// finalize converts an accumulator into a SlotClosed event.
func (l *Live) finalize(spot, slot int, acc *core.SlotStats) Event {
	f := acc.Features(l.cfg.Grid.SlotLen, l.cfg.Amplify)
	label := core.ClassifyCell(f, l.cfg.Thresholds[spot])
	return Event{Kind: SlotClosed, Spot: spot, Slot: slot, Features: f, Label: label, Stats: *acc}
}

// Closed returns the finality watermark: every slot with index < Closed()
// is final in this engine and can never accumulate again.
func (l *Live) Closed() int { return l.closed }

// OpenSlots returns how many (spot, slot) accumulator cells are currently
// open — provisional state the engine still holds in memory. Same
// single-goroutine discipline as Ingest; callers publishing it to a
// concurrent reader (a metrics gauge) must copy it into an atomic.
func (l *Live) OpenSlots() int {
	n := 0
	for i := range l.accs {
		n += len(l.accs[i])
	}
	return n
}

// TrackedTaxis returns how many distinct taxis have per-taxi PEA state.
func (l *Live) TrackedTaxis() int { return len(l.taxis) }

// Flush closes every open slot (end of stream) and returns the final
// events in (slot, spot) order. After Flush the whole grid is final:
// further records still feed PEA but can no longer change any slot.
func (l *Live) Flush() []Event {
	return l.closeBelow(l.cfg.Grid.Slots, nil)
}

// FlushUntil finalizes every slot the feed's clock can no longer touch
// given that it has (at least) reached now, without needing another record.
// Drive it from a timer so slots do not linger provisional when the feed
// pauses mid-slot; it applies the same one-slot safety lag as Ingest.
func (l *Live) FlushUntil(now time.Time) []Event {
	if !now.Before(l.cfg.Grid.End()) {
		return l.Flush()
	}
	if cur := l.cfg.Grid.Index(now); cur >= 0 {
		return l.closeBelow(cur-1, nil)
	}
	return nil
}

// CurrentEstimate returns a provisional context for the spot's slot at
// `now` by extrapolating the partial counts to a full slot. ok is false
// when the spot has no activity in that slot or the elapsed share is too
// small to extrapolate (< 20% of the slot).
func (l *Live) CurrentEstimate(spot int, now time.Time) (core.QueueType, bool) {
	if spot < 0 || spot >= len(l.accs) {
		// An unknown spot (stale client, wrong config) has no estimate; it
		// used to panic the caller.
		return core.Unidentified, false
	}
	j := l.cfg.Grid.Index(now)
	if j < 0 {
		return core.Unidentified, false
	}
	acc := l.accs[spot][j]
	if acc == nil {
		return core.Unidentified, false
	}
	return EstimateFromStats(acc, l.cfg.Grid, j, now, l.cfg.Amplify, l.cfg.Thresholds[spot])
}

// EstimateFromStats extrapolates a partial slot accumulator to a full-slot
// provisional context: partial counts are scaled by the slot share elapsed
// at `now`. ok is false for an empty accumulator or when less than 20% of
// the slot has elapsed (too little signal to extrapolate). Shared by
// Live.CurrentEstimate and the sharded ingest service, whose per-shard
// accumulators merge exactly before estimation.
func EstimateFromStats(acc *core.SlotStats, grid core.SlotGrid, slot int, now time.Time, amp core.Amplification, th core.Thresholds) (core.QueueType, bool) {
	if acc == nil || acc.Empty() {
		return core.Unidentified, false
	}
	from, _ := grid.Bounds(slot)
	elapsed := now.Sub(from).Seconds()
	slotSec := grid.SlotLen.Seconds()
	if elapsed < 0.2*slotSec {
		return core.Unidentified, false
	}
	f := acc.Features(grid.SlotLen, amp)
	scale := slotSec / elapsed
	f.NArr *= scale
	f.NDep *= scale
	f.QLen *= scale
	return core.ClassifyCell(f, th), true
}

// Provisional is an immutable export of the engine's still-open state for
// the slot its feed clock is currently inside: one cloned accumulator per
// spot (nil when the spot has no activity yet) plus the clock itself.
// Sharded ingestion publishes one Provisional per shard on a cadence and
// merges them — SlotStats merging is exact — to serve zero-delay estimates
// without touching any engine's goroutine state.
type Provisional struct {
	// Clock is the newest record time this engine has seen.
	Clock time.Time
	// Slot is the grid slot containing Clock; -1 outside the grid.
	Slot int
	// Stats holds one cloned accumulator per spot (indexed like
	// Config.Spots); nil entries saw no activity in Slot.
	Stats []*core.SlotStats
}

// ExportProvisional snapshots the current slot's accumulators. Same
// single-goroutine discipline as Ingest: only the owning goroutine may
// call it, but the returned value is a deep clone safe to publish to
// concurrent readers.
func (l *Live) ExportProvisional() *Provisional {
	p := &Provisional{Clock: l.clock, Slot: -1}
	if l.clock.IsZero() {
		return p
	}
	j := l.cfg.Grid.Index(l.clock)
	if j < 0 {
		return p
	}
	p.Slot = j
	p.Stats = make([]*core.SlotStats, len(l.accs))
	for spot := range l.accs {
		if acc := l.accs[spot][j]; acc != nil && !acc.Empty() {
			cl := *acc
			cl.DepEnds = append([]time.Time(nil), acc.DepEnds...)
			p.Stats[spot] = &cl
		}
	}
	return p
}
