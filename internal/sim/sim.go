// Package sim is the city-scale taxi fleet simulator that substitutes for
// the proprietary Singapore MDT feed (see DESIGN.md). It drives every taxi
// through the 11-state MDT state machine across street jobs, booking jobs,
// queue-spot waiting, breaks and driver-behavior quirks, and emits
// event-driven MDT log records with the same schema and error modes the
// paper describes (§2, §6.1.1).
//
// The simulation is a discrete-event system: spot arrival processes,
// per-taxi logging, boarding and trips are all events on one deterministic
// calendar queue, so a fixed Config always produces the same dataset.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/dispatch"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
)

// Config parameterizes one simulation run.
type Config struct {
	// Seed drives all randomness; equal seeds give identical outputs.
	Seed int64
	// Start is the simulation start instant (use midnight; its weekday
	// selects the weekday/weekend demand regime).
	Start time.Time
	// Duration of the simulated period; 24h when zero.
	Duration time.Duration
	// NumTaxis is the fleet size; DefaultFleet(City) when zero.
	NumTaxis int
	// City is the landmark map; a default full-scale city when nil.
	City *citymap.Map
	// InjectFaults enables the §6.1.1 error modes (duplicates, improper
	// states, GPS outliers).
	InjectFaults bool
	// Dispatcher receives booking requests; a fresh one when nil.
	Dispatcher *dispatch.Dispatcher
}

const (
	// observedFraction is the share of taxis whose MDT logs appear in the
	// output dataset: the paper's operator covers 60% of the fleet.
	observedFraction = 0.6
	// roamLogIntervalSec and tripLogIntervalSec are the mean seconds
	// between GPS logs, roaming and on a trip.
	roamLogIntervalSec = 110
	tripLogIntervalSec = 80
)

// DefaultFleet is the fleet a city gets when Config.NumTaxis is zero:
// enough taxis that spot supply processes rarely find the pool empty (20
// per landmark and at least 200: 900 taxis for the quarter-scale city's 45
// landmarks, 3,420 for the full-scale city's 171). Exported so callers that
// scale the fleet (e.g. a surge multiplier) can scale the same baseline.
func DefaultFleet(city *citymap.Map) int {
	n := 20 * len(city.Landmarks)
	if n < 200 {
		n = 200
	}
	return n
}

func (c Config) withDefaults() Config {
	if c.Start.IsZero() {
		c.Start = time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC) // a Monday
	}
	if c.Duration == 0 {
		c.Duration = 24 * time.Hour
	}
	if c.City == nil {
		c.City = citymap.Generate(c.Seed+1, 1)
	}
	if c.NumTaxis == 0 {
		c.NumTaxis = DefaultFleet(c.City)
	}
	if c.Dispatcher == nil {
		c.Dispatcher = &dispatch.Dispatcher{}
	}
	return c
}

// Stats counts what happened during a run.
type Stats struct {
	Records         int // observed records emitted (before fault injection)
	StreetJobs      int // quick street-hail pickups away from spots
	SpotPickups     int // street pickups at queue spots
	ScatteredSlow   int // slow pickups away from spots (DBSCAN noise)
	BookingPickups  int // successful booking pickups
	FailedBookings  int
	NoShows         int
	TaxiReneges     int // taxis that left a spot queue without a passenger
	PaxReneges      int // passengers who gave up waiting
	BusyStatePicks  int // §7.2 BUSY-state favorite-passenger pickups
	InjectedFaults  int // erroneous records added by fault injection
	TotalWithFaults int // records in the final dataset
}

// Output is everything a run produces.
type Output struct {
	// Records is the observed MDT dataset in non-decreasing time order.
	Records []mdt.Record
	// Truth is the simulator's ground truth for validation.
	Truth *Truth
	// Stats summarizes the run.
	Stats Stats
	// Dispatcher holds the booking ledger (same object as Config's).
	Dispatcher *dispatch.Dispatcher
	// Config echoes the effective configuration.
	Config Config
}

// Sim is one in-flight simulation. Construct with New, then call Run.
type Sim struct {
	cfg   Config
	rng   *rand.Rand
	city  *citymap.Map
	disp  *dispatch.Dispatcher
	truth *Truth
	stats Stats

	events *eventQueue
	seq    uint64
	now    time.Time
	end    time.Time

	taxis []*taxi
	pool  []int // indexes of taxis roaming FREE
	spots []*spot

	recs []mdt.Record
}

// New prepares a simulation from cfg.
func New(cfg Config) *Sim {
	cfg = cfg.withDefaults()
	s := &Sim{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		city: cfg.City,
		disp: cfg.Dispatcher,
		now:  cfg.Start,
		end:  cfg.Start.Add(cfg.Duration),
	}
	s.truth = newTruth(cfg.City)
	// At most ~7.6 events per taxi pend at once (spot arrival processes
	// included) in days at city scales 0.05 to 1, with or without a 10x
	// fleet, so this slab holds every pending event.
	s.events = newEventQueue(8*cfg.NumTaxis+64, cfg.Start.UnixNano())
	s.initTaxis()
	s.initSpots()
	s.recs = make([]mdt.Record, 0, s.logCapacity())
	return s
}

// recordsPerTaxiDay is what one observed taxi logs in a simulated day:
// 1,048 to 1,150 records at city scales 0.05 to 1, seeds 1 and 7, weekdays
// and Sundays. It sits above the highest so that the record log is
// allocated once.
const recordsPerTaxiDay = 1200

// faultHeadroom is the share of extra capacity fault injection needs: it
// adds one record per duplicate (1.6 % of records) and two per improper
// FREE (0.3 % of PAYMENT records), ~1.7 % in all, and 1/32 covers that.
const faultHeadroom = 1.0 / 32

// logCapacity sizes the record log so that one allocation holds the whole
// run, faults included: recordsPerTaxiDay per observed taxi and day.
func (s *Sim) logCapacity() int {
	observed := 0
	for _, tx := range s.taxis {
		if tx.observed {
			observed++
		}
	}
	n := float64(observed) * recordsPerTaxiDay * s.cfg.Duration.Hours() / 24
	if s.cfg.InjectFaults {
		n *= 1 + faultHeadroom
	}
	return int(n)
}

// Run executes the simulation to completion and returns its output.
func Run(cfg Config) Output {
	s := New(cfg)
	return s.run()
}

func (s *Sim) run() Output {
	for s.events.len() > 0 {
		e := s.events.pop()
		at := time.Unix(0, e.at).UTC()
		if at.After(s.end) {
			break
		}
		s.now = at
		e.fn()
	}
	s.stats.Records = len(s.recs)
	if s.cfg.InjectFaults {
		s.recs, s.stats.InjectedFaults = injectFaults(s.rng, s.recs)
	}
	s.stats.TotalWithFaults = len(s.recs)
	s.stats.FailedBookings = s.truth.failedBookings
	return Output{
		Records:    s.recs,
		Truth:      s.truth,
		Stats:      s.stats,
		Dispatcher: s.disp,
		Config:     s.cfg,
	}
}

// schedule registers fn to fire at t (clamped to the simulation window).
func (s *Sim) schedule(t time.Time, fn func()) {
	if t.After(s.end) {
		return
	}
	s.seq++
	s.events.push(event{at: t.UnixNano(), seq: s.seq, fn: fn})
}

// after schedules fn d from now.
func (s *Sim) after(d time.Duration, fn func()) { s.schedule(s.now.Add(d), fn) }

// emit appends one MDT record for tx if the taxi is in the observed sample.
// pos is jittered by GPS noise (~sigma 6 m).
func (s *Sim) emit(tx *taxi, state mdt.State, pos geo.Point, speedKmh float64) {
	s.truth.transition(tx.lastState, state)
	tx.lastState = state
	if !tx.observed {
		return
	}
	noisy := geo.Offset(pos, s.rng.NormFloat64()*6, s.rng.NormFloat64()*6)
	s.recs = append(s.recs, mdt.Record{
		Time:   s.now,
		TaxiID: tx.id,
		Pos:    noisy,
		Speed:  math.Max(0, speedKmh),
		State:  state,
	})
}

// uniform returns a uniform duration in [lo, hi).
func (s *Sim) uniform(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(s.rng.Int63n(int64(hi-lo)))
}

// expDur draws an exponential duration with the given mean seconds.
func (s *Sim) expDur(meanSec float64) time.Duration {
	return time.Duration(s.rng.ExpFloat64() * meanSec * float64(time.Second))
}

// speedIn returns a uniform speed in [lo, hi) km/h.
func (s *Sim) speedIn(lo, hi float64) float64 { return lo + s.rng.Float64()*(hi-lo) }

// hour returns the simulated hour of day.
func (s *Sim) hour() int { return s.now.Hour() }

// dayKind returns the weekday/weekend regime at the current sim time.
func (s *Sim) dayKind() citymap.DayKind {
	return citymap.DayKindOf(int(s.now.Weekday()))
}

// randomIslandPoint returns a uniform point in the drivable island frame.
func (s *Sim) randomIslandPoint() geo.Point {
	r := citymap.Island
	return citymap.IslandClamp(geo.Point{
		Lat: r.MinLat + s.rng.Float64()*(r.MaxLat-r.MinLat),
		Lon: r.MinLon + s.rng.Float64()*(r.MaxLon-r.MinLon),
	})
}

// tripDestination picks where an occupied taxi goes: a distance drawn from
// an exponential with ~5 km mean (typical Singapore trip), occasionally a
// cross-island ride, sometimes snapped near a landmark.
func (s *Sim) tripDestination(from geo.Point) geo.Point {
	dist := 1500 + s.rng.ExpFloat64()*4000
	if dist > 22000 {
		dist = 22000
	}
	dest := citymap.IslandClamp(geo.Destination(from, s.rng.Float64()*360, dist))
	if s.rng.Float64() < 0.35 && len(s.city.Landmarks) > 0 {
		// Snap to the landmark nearest the raw destination: trips end at
		// malls, stations and estates more often than at random curbs.
		if lm, d, ok := s.city.NearestLandmark(dest); ok && d < 4000 {
			dest = geo.Offset(lm.Pos, s.rng.NormFloat64()*250, s.rng.NormFloat64()*250)
		}
	}
	return dest
}

// pool management -----------------------------------------------------------

// poolAdd returns tx to the roaming-free pool.
func (s *Sim) poolAdd(tx *taxi) {
	if tx.poolIdx >= 0 {
		return
	}
	tx.poolIdx = len(s.pool)
	s.pool = append(s.pool, tx.index)
}

// poolRemove removes tx from the pool (swap-delete).
func (s *Sim) poolRemove(tx *taxi) {
	i := tx.poolIdx
	if i < 0 {
		return
	}
	last := len(s.pool) - 1
	moved := s.pool[last]
	s.pool[i] = moved
	s.taxis[moved].poolIdx = i
	s.pool = s.pool[:last]
	tx.poolIdx = -1
}

// poolTakeRandom removes and returns a random roaming taxi, or nil.
func (s *Sim) poolTakeRandom() *taxi {
	if len(s.pool) == 0 {
		return nil
	}
	tx := s.taxis[s.pool[s.rng.Intn(len(s.pool))]]
	s.poolRemove(tx)
	return tx
}

// freeTaxisWithin counts FREE taxis inside the radius: roaming pool members
// plus taxis queued at spots in range. This feeds the dispatching circle.
func (s *Sim) freeTaxisWithin(center geo.Point, radius float64) int {
	in := geo.NewDisc(center, radius)
	n := 0
	for _, i := range s.pool {
		if in.Contains(s.taxis[i].pos) {
			n++
		}
	}
	for _, sp := range s.spots {
		if sp.taxiQLen > 0 && in.Contains(sp.lm.Pos) {
			n += sp.taxiQLen
		}
	}
	return n
}

func taxiID(i int) string { return fmt.Sprintf("SH%04dA", i+1) }
