package recommend

import (
	"math"
	"testing"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/core"
	"taxiqueue/internal/geo"
)

var (
	origin = geo.Point{Lat: 1.30, Lon: 103.83}
	noon   = time.Date(2026, 1, 5, 12, 0, 0, 0, time.UTC)
)

// fakeResult builds a Result with hand-placed spots and labels.
func fakeResult(spots ...core.SpotAnalysis) *core.Result {
	cfg := core.DefaultEngineConfig()
	cfg.Grid = core.DaySlots(time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC))
	return &core.Result{Config: cfg, Spots: spots}
}

// spotAt creates a spot at distance meters east of origin whose every slot
// is labeled q.
func spotAt(meters float64, pickups int, q core.QueueType) core.SpotAnalysis {
	labels := make([]core.QueueType, 48)
	for i := range labels {
		labels[i] = q
	}
	return core.SpotAnalysis{
		Spot: core.QueueSpot{
			Pos:         geo.Destination(origin, 90, meters),
			Zone:        citymap.Central,
			PickupCount: pickups,
		},
		Labels: labels,
	}
}

func TestDriverPrefersPassengerQueues(t *testing.T) {
	res := fakeResult(
		spotAt(1000, 300, core.C2),
		spotAt(900, 300, core.C3), // closer but a taxi line: useless for a driver
		spotAt(1100, 300, core.C4),
	)
	recs := Recommend(res, ForDriver, origin, noon, Options{})
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	if recs[0].Context != core.C2 {
		t.Fatalf("top driver recommendation is %v, want C2", recs[0].Context)
	}
	for _, r := range recs {
		if r.Context == core.C3 {
			t.Fatal("driver recommended a taxi-queue-only spot")
		}
	}
}

func TestCommuterPrefersTaxiQueues(t *testing.T) {
	res := fakeResult(
		spotAt(1000, 300, core.C3),
		spotAt(900, 300, core.C2),
		spotAt(800, 300, core.C1),
	)
	recs := Recommend(res, ForCommuter, origin, noon, Options{})
	if len(recs) < 2 {
		t.Fatalf("got %d recommendations", len(recs))
	}
	// C1 at 800 m (weight 0.7, distFactor ~0.65) vs C3 at 1000 m (1.0,
	// 0.6): C3's context weight should win.
	if recs[0].Context != core.C3 && recs[0].Context != core.C1 {
		t.Fatalf("top commuter recommendation is %v", recs[0].Context)
	}
	// C2 must rank below both queue-bearing spots.
	if recs[0].Context == core.C2 || (len(recs) > 1 && recs[1].Context == core.C2) {
		t.Fatal("commuter recommended a passenger-queue spot too highly")
	}
}

func TestDistanceCutoff(t *testing.T) {
	res := fakeResult(spotAt(8000, 300, core.C2), spotAt(4900, 300, core.C2))
	recs := Recommend(res, ForDriver, origin, noon, Options{})
	if len(recs) != 1 {
		t.Fatalf("got %d recommendations, want only the spot inside 5 km", len(recs))
	}
	if recs[0].Distance > maxDistanceMeters {
		t.Fatalf("spot %.0f m away recommended beyond the 5 km radius", recs[0].Distance)
	}
}

func TestMaxResults(t *testing.T) {
	var spots []core.SpotAnalysis
	for i := 0; i < 10; i++ {
		spots = append(spots, spotAt(500+float64(i)*100, 300, core.C2))
	}
	res := fakeResult(spots...)
	recs := Recommend(res, ForDriver, origin, noon, Options{})
	if len(recs) != maxResults {
		t.Fatalf("got %d recommendations, want %d", len(recs), maxResults)
	}
	// Identical contexts and pickups: nearer spots score higher.
	for i := 1; i < len(recs); i++ {
		if recs[i].Distance < recs[i-1].Distance {
			t.Fatal("recommendations not ordered by distance for equal contexts")
		}
	}
}

func TestActivityBreaksTies(t *testing.T) {
	busy := spotAt(1000, 500, core.C2)
	quiet := spotAt(1000, 50, core.C2)
	quiet.Spot.Pos = geo.Destination(origin, 270, 1000) // same distance, west
	res := fakeResult(quiet, busy)
	recs := Recommend(res, ForDriver, origin, noon, Options{})
	if recs[0].Spot.PickupCount != 500 {
		t.Fatal("busier spot did not outrank quieter one")
	}
}

// TestNonFinitePositionRejected is the regression test for the NaN/Inf
// query bug: NaN distances pass the radius filter (NaN > max is false)
// and poison the sort comparator, so a non-finite position used to
// return every spot in arbitrary order. It must return nothing.
func TestNonFinitePositionRejected(t *testing.T) {
	res := fakeResult(
		spotAt(1000, 300, core.C2),
		spotAt(2000, 300, core.C1),
	)
	bad := []geo.Point{
		{Lat: math.NaN(), Lon: 103.83},
		{Lat: 1.30, Lon: math.NaN()},
		{Lat: math.Inf(1), Lon: 103.83},
		{Lat: 1.30, Lon: math.Inf(-1)},
		{Lat: math.NaN(), Lon: math.NaN()},
	}
	for _, p := range bad {
		if recs := Recommend(res, ForDriver, p, noon, Options{}); recs != nil {
			t.Fatalf("position %+v produced %d recommendations, want nil", p, len(recs))
		}
	}
	// Sanity: a finite position still works.
	if recs := Recommend(res, ForDriver, origin, noon, Options{}); len(recs) == 0 {
		t.Fatal("finite position returned nothing")
	}
}

// TestForecastRanksByExpectedWait: with a forecast wired in, a nearer
// spot with a long expected wait must lose to a farther spot with a
// short one, and the recommendation carries ETA/ExpectedWait/Forecasted.
func TestForecastRanksByExpectedWait(t *testing.T) {
	near := spotAt(900, 300, core.C2)
	far := spotAt(1100, 300, core.C2)
	res := fakeResult(near, far)
	fc := func(spot int, at time.Time) (core.QueueType, float64, time.Duration, bool) {
		if spot == 0 {
			return core.C2, 5, 40 * time.Minute, true
		}
		return core.C2, 0.5, 30 * time.Second, true
	}
	recs := Recommend(res, ForDriver, origin, noon, Options{Forecast: fc})
	if len(recs) != 2 {
		t.Fatalf("got %d recommendations, want 2", len(recs))
	}
	if recs[0].Spot.Pos != far.Spot.Pos {
		t.Fatal("short-wait far spot did not outrank long-wait near spot")
	}
	for _, r := range recs {
		if !r.Forecasted {
			t.Fatal("forecast answered but Forecasted is false")
		}
		if r.ETA <= 0 {
			t.Fatalf("ETA %v not positive", r.ETA)
		}
	}
	if recs[0].ExpectedWait != 30*time.Second || recs[1].ExpectedWait != 40*time.Minute {
		t.Fatalf("expected waits %v / %v", recs[0].ExpectedWait, recs[1].ExpectedWait)
	}
	// ETA follows the audience travel speed: same query as a commuter
	// (walking) must see a longer ETA for the same spot.
	walk := Recommend(res, ForCommuter, origin, noon, Options{Forecast: func(int, time.Time) (core.QueueType, float64, time.Duration, bool) {
		return core.C3, 1, time.Minute, true
	}})
	if len(walk) == 0 || walk[0].ETA <= recs[0].ETA {
		t.Fatal("walking ETA not longer than driving ETA")
	}
}

// TestForecastEvaluatesAtArrival: the context is read at at+ETA, not at
// the query instant — a spot whose label flips to C2 only after the
// travel time must be ranked by the arrival-slot label.
func TestForecastEvaluatesAtArrival(t *testing.T) {
	sa := spotAt(2000, 300, core.C3) // C3 now: worthless for a driver...
	for j := 25; j < 48; j++ {       // ...but C2 from 12:30 on
		sa.Labels[j] = core.C2
	}
	res := fakeResult(sa)
	// Driving 2 km at 8.3 m/s takes ≈4 min: a driver who queries at 12:28
	// lands past 12:30.
	at := time.Date(2026, 1, 5, 12, 28, 0, 0, time.UTC)
	recs := Recommend(res, ForDriver, origin, at, Options{})
	if len(recs) != 1 {
		t.Fatalf("got %d recommendations, want 1 (arrival-time C2)", len(recs))
	}
	if recs[0].Context != core.C2 {
		t.Fatalf("context %v, want C2 at arrival", recs[0].Context)
	}
	// Queried at 12:10 the arrival stays inside the C3 slot: filtered out.
	early := time.Date(2026, 1, 5, 12, 10, 0, 0, time.UTC)
	if recs := Recommend(res, ForDriver, origin, early, Options{}); len(recs) != 0 {
		t.Fatalf("arrival at 12:14 still C3, got %d recommendations", len(recs))
	}
}

// TestForecastFallback: when the forecast declines (ok false), the batch
// label grid still drives the ranking and Forecasted stays false.
func TestForecastFallback(t *testing.T) {
	res := fakeResult(spotAt(1000, 300, core.C2))
	fc := func(int, time.Time) (core.QueueType, float64, time.Duration, bool) {
		return core.Unidentified, 0, 0, false
	}
	recs := Recommend(res, ForDriver, origin, noon, Options{Forecast: fc})
	if len(recs) != 1 {
		t.Fatalf("got %d recommendations, want 1", len(recs))
	}
	if recs[0].Forecasted || recs[0].ExpectedWait != 0 {
		t.Fatalf("declined forecast leaked into the result: %+v", recs[0])
	}
	if recs[0].Context != core.C2 {
		t.Fatalf("context %v, want batch label C2", recs[0].Context)
	}
}
