package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"taxiqueue/internal/cluster"
	"taxiqueue/internal/geo"
)

// TestLiveDetectorDayReplayMatchesBatch is the tentpole property test:
// replaying a full simulated day's pickups through the live detector (a
// window wide enough to hold the whole day) must end with exactly the
// batch DetectSpots result — same spots, same centroids bit-for-bit, same
// counts, same order.
func TestLiveDetectorDayReplayMatchesBatch(t *testing.T) {
	day := simDay(t)
	res, err := engineForTest(t).Analyze(day.cleaned)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spots) < 10 {
		t.Fatalf("degenerate fixture: only %d batch spots", len(res.Spots))
	}

	d, err := NewLiveDetector(LiveDetectorConfig{
		Cluster: cluster.Params{EpsMeters: 15, MinPoints: 30},
		Window:  48 * time.Hour, // hold the whole day: pure insert replay
	})
	if err != nil {
		t.Fatal(err)
	}
	// Replay in Result.Pickups order — the order DetectSpots clustered.
	for _, p := range res.Pickups {
		if !d.Observe(p.Centroid, p.End) {
			t.Fatal("simulated pickup rejected")
		}
	}

	live := d.Spots()
	if len(live) != len(res.Spots) {
		t.Fatalf("live replay found %d spots, batch %d", len(live), len(res.Spots))
	}
	for i, sp := range live {
		want := res.Spots[i].Spot
		if sp.Pos != want.Pos || sp.Zone != want.Zone || sp.PickupCount != want.PickupCount {
			t.Fatalf("spot %d: live %+v, batch %+v", i, sp, want)
		}
	}
}

// TestLiveDetectorSpotsMatchDetectSpotsOverWindow is the live == batch
// contract for spot detection: after every Refresh, Spots equals
// DetectSpots over exactly the pickups whose time is at least now − Window,
// in arrival order. The feed runs for three windows and mixes blobs that
// grow, two blobs that merge through a bridge and split once the bridge
// expires, scatter across all four zones, and arrivals out of time order
// across zones (one of them more than a window late, never clustered).
func TestLiveDetectorSpotsMatchDetectSpotsOverWindow(t *testing.T) {
	const (
		window = 30 * time.Minute
		step   = 2 * time.Second
		steps  = int(3 * window / step)
	)
	params := cluster.Params{EpsMeters: 15, MinPoints: 8}
	growing := []geo.Point{
		{Lat: 1.28, Lon: 103.85}, // Central
		{Lat: 1.40, Lon: 103.83}, // North
		{Lat: 1.33, Lon: 103.70}, // West
		{Lat: 1.35, Lon: 103.95}, // East
	}
	left := geo.Point{Lat: 1.30, Lon: 103.82}
	right := geo.Offset(left, 120, 0)
	mid := geo.Offset(left, 60, 0)

	// The live detector clusters one zone at a time, so the batch side
	// of the contract is DetectSpots with ByZone set.
	t.Run("ByZone=true", func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		d, err := NewLiveDetector(LiveDetectorConfig{Cluster: params, Window: window})
		if err != nil {
			t.Fatal(err)
		}
		type arrival struct {
			pos geo.Point
			at  time.Time
		}
		var fed []arrival
		var now time.Time
		t0 := time.Date(2026, 1, 5, 8, 0, 0, 0, time.UTC)
		// The bridge arrives first: clumps of MinPoints every 10 m from
		// left to right, so every bridge point is core.
		var bridge []geo.Point
		for m := 10.0; m < 120; m += 10 {
			for k := 0; k < params.MinPoints; k++ {
				bridge = append(bridge, geo.Offset(left, m+rng.NormFloat64(), rng.NormFloat64()))
			}
		}
		sawMerged, sawSplit, maxSpots := false, false, 0
		for i := 0; i < steps; i++ {
			at := t0.Add(time.Duration(i) * step)
			var p geo.Point
			switch u := rng.Float64(); {
			case i < len(bridge):
				p = bridge[i]
			case u < 0.25:
				p = islandScatter(rng)
			case u < 0.45 && at.Before(t0.Add(50*time.Minute)):
				c := left
				if u < 0.35 {
					c = right
				}
				p = geo.Offset(c, rng.NormFloat64()*4, rng.NormFloat64()*4)
			case u < 0.45+0.4*float64(i)/float64(steps):
				p = geo.Offset(growing[rng.Intn(len(growing))], rng.NormFloat64()*5, rng.NormFloat64()*5)
			default:
				p = islandScatter(rng)
			}
			switch {
			case i == 2000:
				at = at.Add(-window - 10*time.Minute) // more than a window late
			case i%211 == 100:
				at = at.Add(-time.Duration(1+rng.Intn(15)) * time.Minute)
				p = geo.Offset(growing[(i/211)%len(growing)], rng.NormFloat64()*5, rng.NormFloat64()*5)
			}
			if !d.Observe(p, at) {
				t.Fatalf("arrival %d rejected", i)
			}
			fed = append(fed, arrival{p, at})
			if at.After(now) {
				now = at
			}
			if i%37 != 36 && i != steps-1 {
				continue
			}

			var alive []Pickup
			for _, a := range fed {
				if !a.at.Before(now.Add(-window)) {
					alive = append(alive, Pickup{Centroid: a.pos})
				}
			}
			// Spots answers over the alive points whether or not Refresh
			// has dropped the expired ones yet.
			before := d.Spots()
			d.Refresh()
			got := d.Spots()
			if n := d.Stats().WindowPoints; n != len(alive) {
				t.Fatalf("arrival %d: WindowPoints %d, %d pickups alive", i, n, len(alive))
			}
			for _, par := range []int{1, 0} {
				want, err := DetectSpots(alive, DetectorConfig{Cluster: params, ByZone: true, Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range []struct {
					when string
					live []QueueSpot
				}{{"before Refresh", before}, {"after Refresh", got}} {
					when, live := c.when, c.live
					if len(live) != len(want) {
						t.Fatalf("arrival %d, Parallelism %d, %s: live %d spots, batch %d", i, par, when, len(live), len(want))
					}
					for k := range live {
						g, w := live[k], want[k]
						if math.Float64bits(g.Pos.Lat) != math.Float64bits(w.Pos.Lat) ||
							math.Float64bits(g.Pos.Lon) != math.Float64bits(w.Pos.Lon) ||
							g.Zone != w.Zone || g.PickupCount != w.PickupCount {
							t.Fatalf("arrival %d, Parallelism %d, %s, spot %d: live %+v, batch %+v", i, par, when, k, g, w)
						}
					}
				}
			}
			maxSpots = max(maxSpots, len(got))
			nearMid := 0
			for _, sp := range got {
				if geo.Equirect(sp.Pos, mid) < 100 {
					nearMid++
				}
			}
			sawMerged = sawMerged || nearMid == 1
			sawSplit = sawSplit || (nearMid == 2 && sawMerged)
		}
		if !sawMerged || !sawSplit || maxSpots < 5 {
			t.Fatalf("degenerate feed: merged %v, split %v, at most %d spots", sawMerged, sawSplit, maxSpots)
		}

		d.Advance(now.Add(window + time.Second))
		d.Refresh()
		if spots, n := d.Spots(), d.Stats().WindowPoints; len(spots) != 0 || n != 0 {
			t.Fatalf("drained window: %d spots over %d points", len(spots), n)
		}
	})
}

// TestLiveDetectorRejectsDegenerateInput: NaN and ±Inf pickups are
// rejected before they touch the clock or the window, and unusable DBSCAN
// parameters fail construction.
func TestLiveDetectorRejectsDegenerateInput(t *testing.T) {
	d, err := NewLiveDetector(LiveDetectorConfig{Cluster: cluster.Params{EpsMeters: 15, MinPoints: 2}, Window: 30 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)
	if !d.Observe(geo.Point{Lat: 1.3, Lon: 103.8}, t0) {
		t.Fatal("finite point rejected")
	}
	bad := []geo.Point{
		{Lat: math.NaN(), Lon: 103.8},
		{Lat: 1.3, Lon: math.NaN()},
		{Lat: math.Inf(1), Lon: 103.8},
		{Lat: 1.3, Lon: math.Inf(-1)},
	}
	for _, p := range bad {
		// An hour later: had the clock advanced, the first point expired.
		if d.Observe(p, t0.Add(time.Hour)) {
			t.Fatalf("non-finite point %v accepted", p)
		}
	}
	if !d.now.Equal(t0) {
		t.Fatalf("rejected points moved the clock to %v", d.now)
	}
	if n := d.Stats().WindowPoints; n != 1 {
		t.Fatalf("window holds %d points after rejects, want 1", n)
	}
	for _, p := range []cluster.Params{{EpsMeters: 0, MinPoints: 2}, {EpsMeters: 15, MinPoints: 0}} {
		if _, err := NewLiveDetector(LiveDetectorConfig{Cluster: p}); err == nil {
			t.Fatalf("params %+v accepted", p)
		}
	}
}

// TestLiveDetectorWindowStaysBounded: thirty days at one pickup per 2 s
// through a 3 h window — Observe drops the expired prefix, so the window's
// backing array follows the alive count, not the length of the feed.
func TestLiveDetectorWindowStaysBounded(t *testing.T) {
	d, err := NewLiveDetector(LiveDetectorConfig{Cluster: cluster.Params{EpsMeters: 15, MinPoints: 50}, Window: 3 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	pool := livePool(4096, false)
	clock := time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)
	const perDay = 24 * 3600 / 2
	peak, maxCap := 0, 0
	for i := 0; i < 30*perDay; i++ {
		clock = clock.Add(2 * time.Second)
		d.Observe(pool[i%len(pool)], clock)
		if i%perDay == perDay-1 {
			d.Refresh()
		}
		peak = max(peak, len(d.window))
		maxCap = max(maxCap, cap(d.window))
	}
	if peak != int(3*time.Hour/(2*time.Second))+1 {
		t.Fatalf("peak alive %d, want a full 3 h window", peak)
	}
	if maxCap >= 4*peak {
		t.Fatalf("window capacity reached %d for at most %d alive points", maxCap, peak)
	}
}

// TestLiveDetectorMatchMetersIsTheLimit: a cluster takes over a tracked
// spot only when its centroid lies at most 2×EpsMeters away. The limit
// used to be one meter more, so a cluster 30.5 m from a spot (limit 30)
// moved the spot instead of starting a second one.
func TestLiveDetectorMatchMetersIsTheLimit(t *testing.T) {
	for _, tc := range []struct {
		meters float64
		match  bool
	}{{29.5, true}, {30.5, false}} {
		t.Run(fmt.Sprint(tc.meters), func(t *testing.T) {
			d, err := NewLiveDetector(LiveDetectorConfig{
				Cluster: cluster.Params{EpsMeters: 15, MinPoints: 10},
				Window:  30 * time.Minute,
			})
			if err != nil {
				t.Fatal(err)
			}
			c := geo.Point{Lat: 1.30, Lon: 103.80}
			moved := geo.Offset(c, tc.meters, 0)
			if dist := geo.Equirect(c, moved); math.Abs(dist-tc.meters) > 0.01 {
				t.Fatalf("fixture: cluster %.3f m away, want %.1f", dist, tc.meters)
			}
			clock := time.Date(2026, 1, 5, 12, 0, 0, 0, time.UTC)
			observe := func(p geo.Point, n int) {
				for i := 0; i < n; i++ {
					clock = clock.Add(time.Second)
					d.Observe(p, clock)
				}
			}
			// 20 pickups reach the confirm bar (2×MinPoints): confirmed at birth.
			observe(c, 20)
			first := d.Refresh()
			if len(first) != 1 || first[0].State != SpotConfirmed {
				t.Fatalf("first cluster: %+v, want one confirmed spot", first)
			}
			// The first cluster ages out while ten pickups gather nearby.
			clock = clock.Add(31 * time.Minute)
			observe(moved, 10)
			spots := d.Refresh()
			st := d.Stats()
			if tc.match {
				if len(spots) != 1 || spots[0].Spot.PickupCount != 10 || spots[0].State != SpotConfirmed ||
					geo.Equirect(spots[0].Spot.Pos, moved) > 0.01 || st.EmergingTotal != 1 {
					t.Fatalf("cluster %.1f m away: %+v (stats %+v), want the spot moved to it, still confirmed", tc.meters, spots, st)
				}
				return
			}
			if len(spots) != 2 || st.EmergingTotal != 2 {
				t.Fatalf("cluster %.1f m away: %+v (stats %+v), want a second spot", tc.meters, spots, st)
			}
			for _, sp := range spots {
				switch sp.State {
				case SpotEmerging:
					if geo.Equirect(sp.Spot.Pos, moved) > 0.01 || sp.Spot.PickupCount != 10 {
						t.Fatalf("new spot %+v, want 10 pickups at the new cluster", sp)
					}
				case SpotDecaying:
					if sp.Spot.Pos != first[0].Spot.Pos {
						t.Fatalf("first spot moved from %v to %v", first[0].Spot.Pos, sp.Spot.Pos)
					}
				default:
					t.Fatalf("unexpected state %v in %+v", sp.State, spots)
				}
			}
		})
	}
}

// feedBlob pushes n pickups scattered sigma meters around c, one second
// apart starting at t0, and returns the time after the last one.
func feedBlob(t *testing.T, d *LiveDetector, c geo.Point, n int, t0 time.Time, rng *rand.Rand) time.Time {
	t.Helper()
	clock := t0
	for i := 0; i < n; i++ {
		clock = clock.Add(time.Second)
		if !d.Observe(geo.Offset(c, rng.NormFloat64()*4, rng.NormFloat64()*4), clock) {
			t.Fatal("pickup rejected")
		}
	}
	return clock
}

func TestLiveDetectorLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c := geo.Point{Lat: 1.30, Lon: 103.80}
	d, err := NewLiveDetector(LiveDetectorConfig{
		Cluster: cluster.Params{EpsMeters: 15, MinPoints: 10},
		Window:  30 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2026, 1, 5, 12, 0, 0, 0, time.UTC)

	// 10 pickups: dense enough to cluster, below the 20-point confirm bar.
	clock := feedBlob(t, d, c, 10, t0, rng)
	spots := d.Refresh()
	if len(spots) != 1 || spots[0].State != SpotEmerging {
		t.Fatalf("after 10 pickups: %+v, want one emerging spot", spots)
	}
	if got := d.Stats(); got.EmergingTotal != 1 || got.ConfirmedTotal != 0 {
		t.Fatalf("stats %+v, want 1 emerging 0 confirmed", got)
	}

	// 15 more: past the confirm bar (2×10) — the spot confirms.
	clock = feedBlob(t, d, c, 15, clock, rng)
	spots = d.Refresh()
	if len(spots) != 1 || spots[0].State != SpotConfirmed {
		t.Fatalf("after 25 pickups: %+v, want one confirmed spot", spots)
	}
	if spots[0].Spot.PickupCount != 25 {
		t.Fatalf("confirmed support %d, want 25", spots[0].Spot.PickupCount)
	}

	// The queue dries up: once the window slides past, the cluster
	// dissolves and the spot decays rather than vanishing.
	d.Advance(clock.Add(31 * time.Minute))
	spots = d.Refresh()
	if len(spots) != 1 || spots[0].State != SpotDecaying {
		t.Fatalf("after the window drained: %+v, want one decaying spot", spots)
	}
	if spots[0].Spot.PickupCount != 0 {
		t.Fatalf("decaying support %d, want 0", spots[0].Spot.PickupCount)
	}

	// Still dry Window/2 after it last matched: dropped.
	d.Advance(clock.Add(42 * time.Minute))
	if spots = d.Refresh(); len(spots) != 0 {
		t.Fatalf("decayed spot still tracked: %+v", spots)
	}
	st := d.Stats()
	if st.EmergingTotal != 1 || st.ConfirmedTotal != 1 || st.DecayedTotal != 1 || st.DroppedTotal != 1 {
		t.Fatalf("lifecycle counters %+v, want 1/1/1/1", st)
	}
	if st.Tracked != 0 || st.WindowPoints != 0 {
		t.Fatalf("population %+v, want empty", st)
	}
}

// TestLiveDetectorHysteresis checks the anti-flap band: support wobbling
// between MinPoints and 2×MinPoints changes nothing in either state.
func TestLiveDetectorHysteresis(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	c := geo.Point{Lat: 1.30, Lon: 103.80}
	d, err := NewLiveDetector(LiveDetectorConfig{
		Cluster: cluster.Params{EpsMeters: 15, MinPoints: 15},
		Window:  30 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2026, 1, 5, 12, 0, 0, 0, time.UTC)

	// 20 points sits inside the band: the spot emerges but never confirms.
	clock := feedBlob(t, d, c, 20, t0, rng)
	if spots := d.Refresh(); len(spots) != 1 || spots[0].State != SpotEmerging {
		t.Fatalf("in-band support: %+v, want still emerging", spots)
	}
	// 15 more confirms (35 ≥ 30)…
	clock = feedBlob(t, d, c, 15, clock, rng)
	if spots := d.Refresh(); len(spots) != 1 || spots[0].State != SpotConfirmed {
		t.Fatal("support above confirm bar did not confirm")
	}
	// …then the window slides past the first 35 points while 20 fresh
	// ones arrive: support lands back inside the band (20 ≥ MinPoints,
	// < 2×MinPoints) — still confirmed, no decay flap.
	clock = feedBlob(t, d, c, 20, clock.Add(31*time.Minute), rng)
	spots := d.Refresh()
	if len(spots) != 1 || spots[0].State != SpotConfirmed {
		t.Fatalf("in-band support after confirm: %+v, want still confirmed", spots)
	}
	if got := spots[0].Spot.PickupCount; got != 20 {
		t.Fatalf("banded support %d, want 20", got)
	}
	if st := d.Stats(); st.DecayedTotal != 0 {
		t.Fatalf("confirmed spot decayed inside the hysteresis band: %+v", st)
	}

	// The mirror edge: once decaying, in-band support must NOT re-confirm.
	d.Advance(clock.Add(31 * time.Minute))
	if spots := d.Refresh(); len(spots) != 1 || spots[0].State != SpotDecaying {
		t.Fatalf("drained window: %+v, want decaying", spots)
	}
	clock = feedBlob(t, d, c, 20, clock.Add(32*time.Minute), rng)
	if spots := d.Refresh(); len(spots) != 1 || spots[0].State != SpotDecaying {
		t.Fatalf("in-band support while decaying: %+v, want still decaying", spots)
	}
}
