// Package recommend implements the paper's motivating applications (§1 and
// the §9 future work): recommending queue spots to taxi drivers (where are
// passengers queuing?) and to commuters (where are taxis queuing?), ranked
// by a combination of context, activity and travel distance.
package recommend

import (
	"math"
	"sort"
	"time"

	"taxiqueue/internal/core"
	"taxiqueue/internal/geo"
)

// Audience selects who the recommendation is for.
type Audience uint8

const (
	// ForDriver recommends spots with waiting passengers (C1/C2).
	ForDriver Audience = iota
	// ForCommuter recommends spots with waiting taxis (C1/C3).
	ForCommuter
)

// String implements fmt.Stringer.
func (a Audience) String() string {
	if a == ForDriver {
		return "driver"
	}
	return "commuter"
}

// Recommendation is one ranked queue spot.
type Recommendation struct {
	Spot     core.QueueSpot
	Context  core.QueueType
	Distance float64 // meters from the query position
	Score    float64 // higher is better
	// ETA is the estimated travel time to the spot at the audience's
	// travel speed; the context and wait are evaluated at at+ETA, not at
	// the query instant — the queue that matters is the one you arrive to.
	ETA time.Duration
	// ExpectedWait is the forecast wait at arrival; zero when no forecast
	// answered (Forecasted false).
	ExpectedWait time.Duration
	// Forecasted says a profile-table forecast (not just the batch label
	// grid) produced Context/ExpectedWait.
	Forecasted bool
}

// ForecastFunc evaluates a spot's expected queue state at an instant —
// the seam internal/forecast plugs in through (a func type, so this
// package needs no forecast dependency). spot is the index into the
// ranked Result's Spots. ok false means "no learned answer"; the ranking
// then falls back to the batch label grid.
type ForecastFunc func(spot int, at time.Time) (label core.QueueType, qlen float64, wait time.Duration, ok bool)

// The ranking's fixed terms: the search radius, the length of the list,
// the distance and the expected wait at which their factors halve, and the
// speeds that convert distance to ETA (≈30 km/h urban driving for drivers,
// walking for commuters).
const (
	maxDistanceMeters  = 5000
	maxResults         = 5
	halfDistanceMeters = 1500
	halfWait           = 10 * time.Minute
	driveSpeedMps      = 8.3
	walkSpeedMps       = 1.4
)

// Options tunes the ranking.
type Options struct {
	// Forecast, when set, upgrades the ranking from "label at the query
	// instant" to "expected state at arrival": context, queue length and
	// wait come from the forecast evaluated per spot at at+ETA.
	Forecast ForecastFunc
}

// contextWeight scores how attractive a context is for the audience. A
// driver wants passenger queues; C2 (passengers only) beats C1 (they would
// join a taxi line). A commuter wants taxi queues; C3 beats C1 (no
// passenger line to stand in).
func contextWeight(aud Audience, q core.QueueType) float64 {
	switch aud {
	case ForDriver:
		switch q {
		case core.C2:
			return 1.0
		case core.C1:
			return 0.6
		case core.C4, core.Unidentified:
			return 0.1
		default: // C3: a taxi line with no passengers
			return 0
		}
	default:
		switch q {
		case core.C3:
			return 1.0
		case core.C1:
			return 0.7
		case core.C4, core.Unidentified:
			return 0.1
		default: // C2: joining an existing passenger queue
			return 0.05
		}
	}
}

// Recommend ranks the analyzed spots for the audience at the given position
// and time. The score combines the context weight, the spot's activity
// (pickup volume, saturating), an inverse-distance factor and — when a
// forecast is wired in — an inverse-expected-wait factor, all evaluated at
// the arrival instant at+ETA rather than at itself.
//
// A non-finite position returns nil: NaN distances would defeat the radius
// filter (NaN > max is false) and make the sort comparator non-transitive.
func Recommend(res *core.Result, aud Audience, from geo.Point, at time.Time, opts Options) []Recommendation {
	if math.IsNaN(from.Lat) || math.IsInf(from.Lat, 0) ||
		math.IsNaN(from.Lon) || math.IsInf(from.Lon, 0) {
		return nil
	}
	speed := walkSpeedMps
	if aud == ForDriver {
		speed = driveSpeedMps
	}
	grid := res.Config.Grid
	var out []Recommendation
	for i := range res.Spots {
		sa := &res.Spots[i]
		d := geo.Equirect(from, sa.Spot.Pos)
		if d > maxDistanceMeters {
			continue
		}
		eta := time.Duration(d / speed * float64(time.Second))
		arrival := at.Add(eta)
		ctx := sa.LabelAt(grid, arrival)
		var wait time.Duration
		forecasted := false
		if opts.Forecast != nil {
			if label, _, w, ok := opts.Forecast(i, arrival); ok {
				ctx, wait, forecasted = label, w, true
			}
		}
		w := contextWeight(aud, ctx)
		if w == 0 {
			continue
		}
		activity := float64(sa.Spot.PickupCount)
		activityFactor := activity / (activity + 100) // saturates toward 1
		distFactor := halfDistanceMeters / (halfDistanceMeters + d)
		waitFactor := 1.0
		if forecasted {
			waitFactor = float64(halfWait) / float64(halfWait+wait)
		}
		out = append(out, Recommendation{
			Spot:         sa.Spot,
			Context:      ctx,
			Distance:     d,
			Score:        w * activityFactor * distFactor * waitFactor,
			ETA:          eta,
			ExpectedWait: wait,
			Forecasted:   forecasted,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Distance < out[j].Distance
	})
	if len(out) > maxResults {
		out = out[:maxResults]
	}
	return out
}

// EmergingPassengerQueues returns the spots whose context switched into a
// passenger-queue state (C1/C2) at the slot containing `at`, having been in
// a non-passenger-queue state in the previous slot — the "recent emerging
// passenger queue spots" feed the §9 driver recommendation describes.
func EmergingPassengerQueues(res *core.Result, at time.Time) []core.QueueSpot {
	grid := res.Config.Grid
	j := grid.Index(at)
	if j <= 0 {
		return nil
	}
	paxQueue := func(q core.QueueType) bool { return q == core.C1 || q == core.C2 }
	var out []core.QueueSpot
	for i := range res.Spots {
		sa := &res.Spots[i]
		if j >= len(sa.Labels) {
			continue
		}
		if paxQueue(sa.Labels[j]) && !paxQueue(sa.Labels[j-1]) {
			out = append(out, sa.Spot)
		}
	}
	return out
}
