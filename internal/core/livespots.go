package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"taxiqueue/internal/cluster"
	"taxiqueue/internal/geo"
)

// SpotState is the lifecycle stage of a live-discovered queue spot.
type SpotState uint8

const (
	// SpotEmerging: a window cluster appeared but has not yet reached the
	// confirmation density — tentative, dropped the moment it dissolves.
	SpotEmerging SpotState = iota
	// SpotConfirmed: the cluster reached 2×MinPoints; it stays confirmed
	// until it dissolves, its support below MinPoints (hysteresis band).
	SpotConfirmed
	// SpotDecaying: a confirmed spot whose cluster dissolved; it
	// re-confirms at 2×MinPoints or is dropped Window/2 after it last
	// matched a cluster.
	SpotDecaying
)

var spotStateNames = [...]string{"emerging", "confirmed", "decaying"}

// String returns the lowercase wire spelling used by /spots?live=1.
func (s SpotState) String() string {
	if int(s) < len(spotStateNames) {
		return spotStateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// LiveSpot is one live-discovered queue spot with its lifecycle state.
// Spot.PickupCount is the spot's current sliding-window support (0 while
// decaying with no qualifying cluster), not a daily total.
type LiveSpot struct {
	Spot      QueueSpot
	State     SpotState
	FirstSeen time.Time // when the cluster was first tracked
	LastSeen  time.Time // last refresh at which a qualifying cluster matched
}

// LiveDetectorConfig parameterizes online queue-spot discovery. The window
// is clustered one Fig. 5 zone at a time, the lifecycle's thresholds derive
// from Cluster and Window (see SpotState), and a cluster within 2×EpsMeters
// of a tracked spot is that spot.
type LiveDetectorConfig struct {
	// Cluster holds the DBSCAN ε_d/p_d pair applied to the sliding window.
	// MinPoints is the paper's per-day density scaled to the window the
	// caller chooses; every extracted cluster holds at least MinPoints.
	Cluster cluster.Params
	// Window is how much pickup history stays clusterable (default 3h).
	Window time.Duration
}

// DefaultLiveDetectorConfig returns the paper's clustering parameters over
// a 3-hour window.
func DefaultLiveDetectorConfig() LiveDetectorConfig {
	return LiveDetectorConfig{
		Cluster: cluster.Params{EpsMeters: 15, MinPoints: 50},
		Window:  3 * time.Hour,
	}
}

// LiveStats are cumulative lifecycle transition counts (the feed behind
// the spot_live_*_total metrics) plus the current tracked population.
type LiveStats struct {
	Tracked        int    // spots currently tracked (any state)
	WindowPoints   int    // pickups currently alive in the window
	EmergingTotal  uint64 // spots that started tracking
	ConfirmedTotal uint64 // transitions into confirmed
	DecayedTotal   uint64 // transitions into decaying
	DroppedTotal   uint64 // spots removed (dissolved or timed out)
}

// LiveDetector discovers queue spots online: pickups enter one sliding
// window in arrival order, Spots runs the batch spot detector (detectSpots,
// the code behind DetectSpots) over the window's alive points, and Refresh
// reconciles those spots against the tracked ones, advancing the
// emerging → confirmed → decaying lifecycle with hysteresis so labels
// don't flap. Not safe for concurrent use; the ingest tracker serializes.
type LiveDetector struct {
	cfg    LiveDetectorConfig
	window []windowPickup // arrival order; expired points linger until Refresh
	pts    []geo.Point    // alive points, reused by Spots
	spots  []LiveSpot
	stats  LiveStats
	now    time.Time
}

// windowPickup is one pickup centroid in the live window.
type windowPickup struct {
	pos geo.Point
	t   time.Time
}

// NewLiveDetector builds an empty detector; a zero Window takes the
// documented default.
func NewLiveDetector(cfg LiveDetectorConfig) (*LiveDetector, error) {
	if cfg.Window <= 0 {
		cfg.Window = 3 * time.Hour
	}
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	return &LiveDetector{cfg: cfg}, nil
}

// Observe feeds one pickup event: the detector clock advances to t
// (monotonically), the point joins the window and the window's expired
// prefix is dropped. Degenerate (non-finite) points are rejected, reported
// false, before they touch the clock.
func (d *LiveDetector) Observe(p geo.Point, t time.Time) bool {
	if math.IsNaN(p.Lat) || math.IsNaN(p.Lon) || math.IsInf(p.Lat, 0) || math.IsInf(p.Lon, 0) {
		return false
	}
	d.Advance(t)
	d.window = append(d.window, windowPickup{pos: p, t: t})
	i := 0
	for i < len(d.window) && d.expired(d.window[i].t) {
		i++
	}
	d.window = d.window[i:]
	return true
}

// Advance moves the detector clock forward without a pickup — flush
// barriers and slot closures call this so the window drains during lulls.
func (d *LiveDetector) Advance(t time.Time) {
	if t.After(d.now) {
		d.now = t
	}
}

// expired reports whether a pickup observed at t has left the window: a
// window point is alive while its time is at least now − Window.
func (d *LiveDetector) expired(t time.Time) bool { return t.Before(d.now.Add(-d.cfg.Window)) }

// Spots runs the batch spot detector over the window's alive points in
// arrival order and returns its spots, sorted like DetectSpots. Over a
// window covering a whole day this is the batch DetectSpots result for
// that day; live == batch holds because both run detectSpots.
func (d *LiveDetector) Spots() []QueueSpot {
	d.pts = d.pts[:0]
	for _, w := range d.window {
		if !d.expired(w.t) {
			d.pts = append(d.pts, w.pos)
		}
	}
	// Sequential: the ingest tracker refreshes under its mutex on a shard
	// worker.
	spots, err := detectSpots(d.pts, DetectorConfig{Cluster: d.cfg.Cluster, ByZone: true, Parallelism: 1})
	if err != nil {
		panic(err) // unreachable: NewLiveDetector validated cfg.Cluster
	}
	return spots
}

// Refresh drops every expired window point (not only the prefix Observe
// drops), extracts the current clusters and reconciles them with the
// tracked spots:
//
//   - an unmatched cluster starts a new emerging spot;
//   - a matched spot follows the cluster's centroid and support, and the
//     support drives the hysteresis state machine (confirm at
//     2×MinPoints, decay below MinPoints, re-confirm at 2×MinPoints);
//   - an emerging spot whose cluster dissolved is dropped immediately, a
//     decaying one Window/2 after it last matched.
//
// The returned slice is a fresh copy sorted by support (desc, ties by
// position) — safe to publish in an immutable snapshot.
func (d *LiveDetector) Refresh() []LiveSpot {
	alive := d.window[:0]
	for _, w := range d.window {
		if !d.expired(w.t) {
			alive = append(alive, w)
		}
	}
	d.window = alive
	spots := d.Spots()
	confirm, decay := 2*d.cfg.Cluster.MinPoints, d.cfg.Cluster.MinPoints
	dropAfter, matchMeters := d.cfg.Window/2, 2*d.cfg.Cluster.EpsMeters

	// Biggest clusters claim tracked spots first: nearest unclaimed
	// tracked spot of the same zone within matchMeters.
	matched := make([]int, len(d.spots)) // window support matched this round; -1 = unmatched
	for i := range matched {
		matched[i] = -1
	}
	var fresh []QueueSpot
	for _, sp := range spots {
		best, bestD := -1, math.Inf(1)
		for i := range d.spots {
			if matched[i] >= 0 || d.spots[i].Spot.Zone != sp.Zone {
				continue
			}
			if dist := geo.Equirect(d.spots[i].Spot.Pos, sp.Pos); dist <= matchMeters && dist < bestD {
				best, bestD = i, dist
			}
		}
		if best < 0 {
			fresh = append(fresh, sp)
			continue
		}
		matched[best] = sp.PickupCount
		d.spots[best].Spot = sp
		d.spots[best].LastSeen = d.now
	}

	kept := d.spots[:0]
	for i := range d.spots {
		s := d.spots[i]
		support := matched[i]
		if support < 0 {
			s.Spot.PickupCount = 0
			support = 0
		}
		switch s.State {
		case SpotEmerging:
			if matched[i] < 0 {
				d.stats.DroppedTotal++
				continue // tentative and dissolved: forget it
			}
			if support >= confirm {
				s.State = SpotConfirmed
				d.stats.ConfirmedTotal++
			}
		case SpotConfirmed:
			if support < decay {
				s.State = SpotDecaying
				d.stats.DecayedTotal++
			}
		case SpotDecaying:
			if support >= confirm {
				s.State = SpotConfirmed
				d.stats.ConfirmedTotal++
			} else if d.now.Sub(s.LastSeen) >= dropAfter {
				d.stats.DroppedTotal++
				continue
			}
		}
		kept = append(kept, s)
	}
	d.spots = kept
	for _, sp := range fresh {
		d.stats.EmergingTotal++
		ls := LiveSpot{Spot: sp, State: SpotEmerging, FirstSeen: d.now, LastSeen: d.now}
		if sp.PickupCount >= confirm {
			// Born past the confirmation density — e.g. a pop-up rank that
			// filled between refreshes. Skip straight to confirmed.
			ls.State = SpotConfirmed
			d.stats.ConfirmedTotal++
		}
		d.spots = append(d.spots, ls)
	}

	sort.Slice(d.spots, func(i, j int) bool { return spotBefore(&d.spots[i].Spot, &d.spots[j].Spot) })
	out := make([]LiveSpot, len(d.spots))
	copy(out, d.spots)
	return out
}

// Stats returns cumulative lifecycle counters and the live population.
func (d *LiveDetector) Stats() LiveStats {
	st := d.stats
	st.Tracked = len(d.spots)
	for _, w := range d.window {
		if !d.expired(w.t) {
			st.WindowPoints++
		}
	}
	return st
}
