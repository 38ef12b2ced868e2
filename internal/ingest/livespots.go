package ingest

import (
	"sync"
	"time"

	"taxiqueue/internal/core"
	"taxiqueue/internal/stream"
)

// LiveSpotsConfig enables online queue-spot discovery on the ingest path.
// When on, every pickup the stream engines detect *outside* the batch spot
// list (stream.Event.Spot == -1) feeds a sliding window that the batch spot
// detector clusters (core.LiveDetector), so brand-new queues — a pop-up
// rank at an event, a closed road diverting taxis — surface with a
// lifecycle state hours before the next batch pass would see them.
// Discovered spots ride the regular read snapshot (Snapshot.Live) and are
// served by /spots?live=1.
//
// Only unmatched pickups feed discovery: pickups at known spots are already
// accounted for, so the live list complements the batch list instead of
// re-deriving it.
type LiveSpotsConfig struct {
	// Enabled turns the tracker on.
	Enabled bool
	// Detector parameterizes the window clustering, from which the
	// emerging → confirmed → decaying hysteresis derives.
	Detector core.LiveDetectorConfig
}

// refreshEvery is how many observed pickups may accumulate before the
// tracker reconciles clusters and republishes. Watermark advances and
// flush barriers also trigger a refresh, so a quiet feed still decays and
// drops stale spots on time.
const refreshEvery = 64

// liveTracker serializes one core.LiveDetector behind a mutex and bridges
// it to the ingest machinery: shard workers feed pickup events in, and
// every refresh that changes the discovered set republishes the read
// snapshot through aggregator.publishLive. The tracker mutex is taken
// before the aggregator mutex, never the other way around.
type liveTracker struct {
	agg *aggregator
	met *metrics

	mu        sync.Mutex
	det       *core.LiveDetector
	since     int             // pickups observed since the last refresh
	published []core.LiveSpot // last list handed to publishLive
	prev      core.LiveStats  // counter values already exported
}

func newLiveTracker(cfg LiveSpotsConfig, agg *aggregator, met *metrics) (*liveTracker, error) {
	det, err := core.NewLiveDetector(cfg.Detector)
	if err != nil {
		return nil, err
	}
	return &liveTracker{agg: agg, met: met, det: det}, nil
}

// observe feeds the unmatched pickups of one shard's event batch into the
// detector, refreshing once refreshEvery have accumulated.
func (t *liveTracker) observe(events []stream.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range events {
		ev := &events[i]
		if ev.Kind != stream.PickupDetected || ev.Spot >= 0 {
			continue
		}
		t.det.Observe(ev.Pickup.Centroid, ev.Pickup.End)
		t.since++
	}
	if t.since >= refreshEvery {
		t.refreshLocked()
	}
}

// advance moves the detector clock to the feed time and refreshes — called
// on watermark advances and flush barriers so the window keeps draining (and
// decaying spots keep aging out) even when no pickups arrive.
func (t *liveTracker) advance(at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.det.Advance(at)
	t.refreshLocked()
}

// refreshLocked reconciles the window clusters, exports lifecycle counter
// deltas, and republishes the snapshot iff the discovered set changed in a
// way readers can see. Callers hold t.mu.
func (t *liveTracker) refreshLocked() {
	t.since = 0
	spots := t.det.Refresh()
	st := t.det.Stats()
	if t.met != nil {
		t.met.spotEmerging.Add(int64(st.EmergingTotal - t.prev.EmergingTotal))
		t.met.spotConfirmed.Add(int64(st.ConfirmedTotal - t.prev.ConfirmedTotal))
		t.met.spotDecayed.Add(int64(st.DecayedTotal - t.prev.DecayedTotal))
		t.met.spotDropped.Add(int64(st.DroppedTotal - t.prev.DroppedTotal))
	}
	t.prev = st
	if liveChanged(t.published, spots) {
		t.published = spots
		t.agg.publishLive(spots)
	}
}

// stats returns the detector's lifecycle counters and population (the
// GaugeFunc feed).
func (t *liveTracker) stats() core.LiveStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.det.Stats()
}

// liveChanged reports whether two discovered-spot lists differ in anything
// a reader can observe: position, support, zone or lifecycle state. The
// Seen timestamps are bookkeeping for dropping a decaying spot and don't
// gate a republish.
func liveChanged(a, b []core.LiveSpot) bool {
	if len(a) != len(b) {
		return true
	}
	for i := range a {
		if a[i].Spot != b[i].Spot || a[i].State != b[i].State {
			return true
		}
	}
	return false
}
