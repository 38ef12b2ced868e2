package sim

import (
	"math"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
)

// taxiMode is the agent-level mode (finer than the MDT state: e.g. both
// "queued" and "roaming" log FREE).
type taxiMode uint8

const (
	modeRoaming taxiMode = iota
	modeToSpot
	modeQueued
	modeBoarding
	modeOnCall
	modeTrip
	modeBreak
)

type taxi struct {
	index    int
	id       string
	observed bool
	pos      geo.Point
	mode     taxiMode
	poolIdx  int // position in Sim.pool, -1 when not pooled
	// epoch invalidates stale scheduled events (crawl logs, reneges):
	// every mode change bumps it; events capture the value at scheduling.
	epoch     uint64
	lastState mdt.State
}

func (s *Sim) initTaxis() {
	n := s.cfg.NumTaxis
	s.taxis = make([]*taxi, n)
	for i := 0; i < n; i++ {
		tx := &taxi{
			index:     i,
			id:        taxiID(i),
			observed:  s.rng.Float64() < s.cfg.ObservedFraction,
			pos:       s.randomIslandPoint(),
			poolIdx:   -1,
			lastState: mdt.Free,
		}
		s.taxis[i] = tx
		s.poolAdd(tx)
		// Stagger the first roam log across the first interval.
		s.schedule(s.cfg.Start.Add(s.expDur(s.cfg.RoamLogIntervalSec)), func() { s.roamLog(tx, tx.epoch) })
		// One or two driver breaks per day.
		s.scheduleBreaks(tx)
	}
	s.scheduleGlobalProcesses()
}

func (tx *taxi) bump() { tx.epoch++ }

// setMode transitions the agent mode and invalidates stale events.
func (s *Sim) setMode(tx *taxi, m taxiMode) {
	tx.mode = m
	tx.bump()
}

// toRoaming returns a taxi to FREE roaming and the pool.
func (s *Sim) toRoaming(tx *taxi) {
	s.setMode(tx, modeRoaming)
	s.poolAdd(tx)
	epoch := tx.epoch
	s.after(s.expDur(s.cfg.RoamLogIntervalSec), func() { s.roamLog(tx, epoch) })
}

// roamLog emits a periodic FREE GPS record while the taxi cruises; it
// sometimes simulates a traffic-jam crawl (no state change, so PEA must
// reject it).
func (s *Sim) roamLog(tx *taxi, epoch uint64) {
	if tx.epoch != epoch || tx.mode != modeRoaming {
		return
	}
	// Random-walk the position.
	tx.pos = s.stepPosition(tx.pos, 200+s.rng.Float64()*1200)
	if s.rng.Float64() < 0.05 {
		// Traffic jam / red light: 2-4 consecutive low-speed records with
		// the taxi state unchanged.
		n := 2 + s.rng.Intn(3)
		for i := 0; i < n; i++ {
			d := time.Duration(i) * s.uniform(20*time.Second, 45*time.Second)
			s.schedule(s.now.Add(d), func() {
				if tx.epoch == epoch {
					s.emit(tx, mdt.Free, tx.pos, s.speedIn(0, 8))
				}
			})
		}
		s.after(time.Duration(n)*45*time.Second+s.expDur(s.cfg.RoamLogIntervalSec), func() { s.roamLog(tx, epoch) })
		return
	}
	s.emit(tx, mdt.Free, tx.pos, s.speedIn(15, 55))
	s.after(s.expDur(s.cfg.RoamLogIntervalSec), func() { s.roamLog(tx, epoch) })
}

// stepPosition moves p a given distance on a random bearing, reflecting back
// into the island frame.
func (s *Sim) stepPosition(p geo.Point, meters float64) geo.Point {
	q := geo.Destination(p, s.rng.Float64()*360, meters)
	r := citymap.IslandClamp(q)
	return r
}

// scheduleBreaks plans BREAK/OFFLINE periods for the day(s).
func (s *Sim) scheduleBreaks(tx *taxi) {
	days := int(s.cfg.Duration.Hours()/24) + 1
	for d := 0; d < days; d++ {
		base := s.cfg.Start.Add(time.Duration(d) * 24 * time.Hour)
		// Lunch-ish break.
		at := base.Add(s.uniform(11*time.Hour, 14*time.Hour))
		s.schedule(at, func() { s.takeBreak(tx, s.uniform(25*time.Minute, 50*time.Minute), false) })
		// Shift change for roughly half the fleet (long OFFLINE period).
		if s.rng.Float64() < 0.5 {
			at := base.Add(s.uniform(16*time.Hour, 18*time.Hour))
			s.schedule(at, func() { s.takeBreak(tx, s.uniform(45*time.Minute, 90*time.Minute), true) })
		}
	}
}

// takeBreak pulls a roaming taxi off the road. Non-roaming taxis skip the
// break (they are mid-job). Long logged-off breaks (shift changes) power
// the MDT down entirely, exercising the full BREAK -> OFFLINE -> POWEROFF
// -> OFFLINE -> BREAK -> FREE cycle of Fig. 3.
func (s *Sim) takeBreak(tx *taxi, d time.Duration, logOff bool) {
	if tx.mode != modeRoaming {
		return
	}
	s.poolRemove(tx)
	s.setMode(tx, modeBreak)
	s.emit(tx, mdt.Break, tx.pos, 0)
	powerOff := logOff && d > time.Hour/2 && s.rng.Float64() < 0.5
	if logOff {
		s.after(s.uniform(30*time.Second, 2*time.Minute), func() {
			if tx.mode == modeBreak {
				s.emit(tx, mdt.Offline, tx.pos, 0)
				if powerOff {
					s.after(s.uniform(time.Minute, 3*time.Minute), func() {
						if tx.mode == modeBreak {
							s.emit(tx, mdt.PowerOff, tx.pos, 0)
						}
					})
				}
			}
		})
	}
	s.after(d, func() {
		if tx.mode != modeBreak {
			return
		}
		if powerOff {
			s.emit(tx, mdt.Offline, tx.pos, 0) // MDT boots logged-off
		}
		if logOff {
			s.emit(tx, mdt.Break, tx.pos, 0)
		}
		s.emit(tx, mdt.Free, tx.pos, 0)
		s.toRoaming(tx)
	})
}

// scheduleGlobalProcesses starts the island-wide Poisson processes: quick
// street hails, scattered slow pickups, and off-spot bookings.
func (s *Sim) scheduleGlobalProcesses() {
	s.schedule(s.cfg.Start.Add(s.expDur(5)), s.streetHailProcess)
	s.schedule(s.cfg.Start.Add(s.expDur(10)), s.scatteredSlowProcess)
	s.schedule(s.cfg.Start.Add(s.expDur(20)), s.homeBookingProcess)
}

// demandShape is a city-wide hourly multiplier for ambient demand.
func (s *Sim) demandShape() float64 {
	shapes := [24]float64{
		0.25, 0.15, 0.10, 0.08, 0.10, 0.25, 0.55, 0.90, 1.00, 0.75,
		0.60, 0.65, 0.70, 0.65, 0.60, 0.65, 0.75, 0.95, 1.00, 0.90,
		0.75, 0.60, 0.45, 0.35,
	}
	return shapes[s.hour()]
}

// streetHailProcess generates quick pickups at arbitrary locations: the
// "high proportion of quick pickup events" of §4 that must NOT be detected
// as queue spots (fewer than two consecutive low-speed records).
func (s *Sim) streetHailProcess() {
	// Rate: ~6 quick hails per taxi per day at peak.
	perSec := float64(s.cfg.NumTaxis) * 8.0 / 86400 * s.demandShape() * s.cfg.RateScale
	s.after(s.expDur(1/math.Max(perSec, 1e-9)), s.streetHailProcess)
	tx := s.poolTakeRandom()
	if tx == nil {
		return
	}
	s.setMode(tx, modeBoarding)
	// The taxi has cruised since its last logged position (it may have
	// just left a queue spot); displace it so off-spot pickups never land
	// on a spot's coordinates.
	tx.pos = s.stepPosition(tx.pos, 600+s.rng.Float64()*2500)
	// Hail while moving: one moderate-speed FREE record, then POB shortly
	// after, also at speed. Occasionally one record dips below the PEA
	// threshold, but never two in a row.
	s.emit(tx, mdt.Free, tx.pos, s.speedIn(9, 30))
	s.after(s.uniform(15*time.Second, 40*time.Second), func() {
		s.emit(tx, mdt.POB, tx.pos, s.speedIn(12, 40))
		s.stats.StreetJobs++
		s.startTrip(tx, tx.pos)
	})
}

// scatteredSlowProcess generates genuine slow pickups away from queue
// spots: PEA extracts them, and they become the spatial noise DBSCAN must
// reject (the paper's 264k daily pickup events vs ~180 spots).
func (s *Sim) scatteredSlowProcess() {
	perSec := float64(s.cfg.NumTaxis) * 9.0 / 86400 * s.demandShape() * s.cfg.RateScale
	s.after(s.expDur(1/math.Max(perSec, 1e-9)), s.scatteredSlowProcess)
	tx := s.poolTakeRandom()
	if tx == nil {
		return
	}
	s.setMode(tx, modeBoarding)
	tx.pos = s.stepPosition(tx.pos, 600+s.rng.Float64()*2500)
	pos := tx.pos
	s.emit(tx, mdt.Free, pos, s.speedIn(0, 8))
	gap1 := s.uniform(25*time.Second, 50*time.Second)
	s.after(gap1, func() { s.emit(tx, mdt.Free, pos, s.speedIn(0, 6)) })
	s.after(gap1+s.uniform(20*time.Second, 60*time.Second), func() {
		s.emit(tx, mdt.POB, pos, s.speedIn(0, 6))
		s.stats.ScatteredSlow++
		s.startTrip(tx, pos)
	})
}

// homeBookingProcess generates bookings away from queue spots (residences,
// small streets). Successful ones are served by a roaming taxi with the full
// ONCALL -> ARRIVED -> POB sequence.
func (s *Sim) homeBookingProcess() {
	perSec := float64(s.cfg.NumTaxis) * 3.0 / 86400 * s.demandShape() * s.cfg.RateScale
	s.after(s.expDur(1/math.Max(perSec, 1e-9)), s.homeBookingProcess)
	pickup := s.randomIslandPoint()
	avail := s.freeTaxisWithin(pickup, s.disp.Radius())
	if !s.disp.Request(s.now, "", pickup, avail) {
		s.truth.failedBookings++
		return
	}
	tx := s.takeNearestPooled(pickup, s.disp.Radius())
	if tx == nil {
		return // the counted taxi was at a spot queue; treat as served there
	}
	s.runBookingPickup(tx, pickup)
}

// takeNearestPooled removes and returns the pooled taxi nearest to p within
// radius, or nil.
func (s *Sim) takeNearestPooled(p geo.Point, radius float64) *taxi {
	in := geo.NewDisc(p, radius)
	best := -1
	bestD := radius
	for _, i := range s.pool {
		pos := s.taxis[i].pos
		if !in.Contains(pos) {
			continue
		}
		if d := geo.Equirect(p, pos); d <= bestD {
			best, bestD = i, d
		}
	}
	if best < 0 {
		return nil
	}
	tx := s.taxis[best]
	s.poolRemove(tx)
	return tx
}

// runBookingPickup drives the §2.2 booking-job sequence for taxi tx to the
// pickup point (away from any queue spot).
func (s *Sim) runBookingPickup(tx *taxi, pickup geo.Point) {
	s.setMode(tx, modeOnCall)
	s.emit(tx, mdt.OnCall, tx.pos, s.speedIn(20, 45))
	travel := s.travelTime(tx.pos, pickup)
	s.after(travel, func() {
		tx.pos = pickup
		s.emit(tx, mdt.Arrived, pickup, s.speedIn(0, 5))
		if s.rng.Float64() < 0.05 {
			// Passenger no-show: NOSHOW then FREE within ~10 s (§2.2).
			s.after(s.uniform(4*time.Minute, 10*time.Minute), func() {
				s.emit(tx, mdt.NoShow, pickup, 0)
				s.stats.NoShows++
				s.after(s.uniform(5*time.Second, 10*time.Second), func() {
					s.emit(tx, mdt.Free, pickup, s.speedIn(10, 30))
					s.toRoaming(tx)
				})
			})
			return
		}
		s.after(s.uniform(30*time.Second, 150*time.Second), func() {
			s.emit(tx, mdt.POB, pickup, s.speedIn(0, 6))
			s.stats.BookingPickups++
			s.startTrip(tx, pickup)
		})
	})
}

// travelTime estimates urban driving time between two points (~26 km/h
// effective with noise, bounded below by one minute).
func (s *Sim) travelTime(from, to geo.Point) time.Duration {
	d := geo.Equirect(from, to)
	secs := d/7.2*(0.8+0.4*s.rng.Float64()) + 60
	return time.Duration(secs * float64(time.Second))
}

// startTrip runs the occupied leg: periodic POB logs, optional STC, then
// PAYMENT and FREE at the destination.
func (s *Sim) startTrip(tx *taxi, from geo.Point) {
	s.setMode(tx, modeTrip)
	epoch := tx.epoch
	dest := s.tripDestination(from)
	dur := s.travelTime(from, dest)
	if dur < 4*time.Minute {
		dur = 4 * time.Minute
	}
	// STC shortly before arrival (drivers sometimes skip it, §6.1.1).
	// Trip logs stop before the STC instant so POB never follows STC,
	// which Fig. 3 forbids.
	logsUntil := dur
	if s.rng.Float64() < 0.8 {
		stcLead := s.uniform(60*time.Second, 100*time.Second)
		stcAt := dur - stcLead
		logsUntil = stcAt - time.Second
		s.schedule(s.now.Add(stcAt), func() {
			if tx.epoch == epoch {
				s.emit(tx, mdt.STC, lerp(from, dest, 0.97), s.speedIn(20, 45))
			}
		})
	}
	// Periodic trip logs, interpolated along the straight segment.
	interval := s.cfg.TripLogIntervalSec
	for i := 1; ; i++ {
		at := time.Duration(float64(i) * interval * float64(time.Second))
		if at >= logsUntil {
			break
		}
		frac := float64(at) / float64(dur)
		s.schedule(s.now.Add(at), func() {
			if tx.epoch != epoch {
				return
			}
			tx.pos = lerp(from, dest, frac)
			s.emit(tx, mdt.POB, tx.pos, s.speedIn(22, 58))
		})
	}
	s.schedule(s.now.Add(dur), func() {
		if tx.epoch != epoch {
			return
		}
		tx.pos = dest
		s.emit(tx, mdt.Payment, dest, s.speedIn(0, 3))
		s.after(s.uniform(25*time.Second, 80*time.Second), func() {
			if tx.epoch != epoch {
				return
			}
			s.emit(tx, mdt.Free, dest, s.speedIn(0, 3))
			s.toRoaming(tx)
		})
	})
}

func lerp(a, b geo.Point, f float64) geo.Point {
	return geo.Point{Lat: a.Lat + (b.Lat-a.Lat)*f, Lon: a.Lon + (b.Lon-a.Lon)*f}
}
