package sim

import (
	"math"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
)

// spot is the simulator's view of one landmark's two-sided queue: a FIFO of
// waiting FREE taxis, a FIFO of waiting passengers, and a set of boarding
// bays (Lots) that serialize pickups.
type spot struct {
	idx int
	lm  citymap.Landmark

	taxiQ    []*queuedTaxi
	taxiHead int
	taxiQLen int // active (non-removed) queued taxis

	paxQ    []*pax
	paxHead int
	paxQLen int
	// priority holds booked riders: a booking bid won by a queued taxi is
	// served at the head of the line, through the same boarding bay (so
	// stand departures stay single-file).
	priority []*pax

	// One boarding bay: pickups are single-file, which is what lets a taxi
	// queue and a passenger queue coexist (the C1 context) — matching is
	// service-limited, not instantaneous — and keeps departure intervals
	// regular so the QCD thresholds behave like the paper's.
	baysBusy int
}

type queuedTaxi struct {
	tx      *taxi
	arrived time.Time
	removed bool // reneged or popped
}

type pax struct {
	arrived time.Time
	removed bool
}

func (s *Sim) initSpots() {
	s.spots = make([]*spot, len(s.city.Landmarks))
	for i, lm := range s.city.Landmarks {
		sp := &spot{idx: i, lm: lm}
		s.spots[i] = sp
		// Stagger process starts.
		s.schedule(s.cfg.Start.Add(s.expDur(30)), func() { s.spotTaxiProcess(sp) })
		s.schedule(s.cfg.Start.Add(s.expDur(30)), func() { s.spotPaxProcess(sp) })
		s.schedule(s.cfg.Start.Add(s.expDur(300)), func() { s.spotBusyAbuseProcess(sp) })
	}
}

// rates returns the spot's current arrival rates per second.
func (s *Sim) rates(sp *spot) (paxPerSec, taxiPerSec, bookingFrac float64) {
	r := citymap.RatesAt(sp.lm, s.hour(), s.dayKind())
	return r.PassengersPerHour / 3600,
		r.TaxisPerHour / 3600,
		r.BookingFraction
}

// nextAfter converts a per-second rate into the next event delay, polling
// again in a few minutes when the rate is (near) zero so the process picks
// back up when the hour profile rises.
func (s *Sim) nextAfter(perSec float64) time.Duration {
	if perSec < 1e-7 {
		return s.uniform(4*time.Minute, 8*time.Minute)
	}
	return s.expDur(1 / perSec)
}

// spotTaxiProcess injects FREE taxis heading for the spot.
func (s *Sim) spotTaxiProcess(sp *spot) {
	_, taxiRate, _ := s.rates(sp)
	s.after(s.nextAfter(taxiRate), func() { s.spotTaxiProcess(sp) })
	if taxiRate < 1e-7 {
		return
	}
	// Balk when the queue is already deep and nobody is waiting (drivers
	// see a dead line and keep cruising), and always when the stand's
	// physical capacity is full.
	if sp.paxQLen == 0 && sp.taxiQLen >= 2+sp.lm.Lots {
		return
	}
	if sp.taxiQLen >= 4+2*sp.lm.Lots {
		return
	}
	tx := s.poolTakeRandom()
	if tx == nil {
		return
	}
	s.setMode(tx, modeToSpot)
	// En-route record at the taxi's previous position.
	s.emit(tx, mdt.Free, tx.pos, s.speedIn(20, 45))
	s.after(s.uniform(time.Minute, 4*time.Minute), func() { s.taxiJoinsQueue(sp, tx) })
}

// taxiJoinsQueue puts tx at the back of the spot's taxi queue and begins
// crawl logging.
func (s *Sim) taxiJoinsQueue(sp *spot, tx *taxi) {
	tx.pos = s.nearSpot(sp)
	s.setMode(tx, modeQueued)
	entry := &queuedTaxi{tx: tx, arrived: s.now}
	sp.taxiQ = append(sp.taxiQ, entry)
	sp.taxiQLen++
	s.truth.taxiQueueChanged(sp, s.now, sp.taxiQLen+sp.baysBusy)
	s.emit(tx, mdt.Free, tx.pos, s.speedIn(0, 7))
	epoch := tx.epoch
	s.after(s.crawlGap(), func() { s.crawlLog(sp, tx, epoch) })
	patience := s.uniform(8*time.Minute, 18*time.Minute)
	s.after(patience, func() { s.taxiRenege(sp, entry, epoch) })
	s.tryMatch(sp)
}

// crawlGap is the spacing between queue crawl records.
func (s *Sim) crawlGap() time.Duration { return s.uniform(25*time.Second, 55*time.Second) }

// nearSpot returns a position a few meters from the spot center (the
// physical queue area).
func (s *Sim) nearSpot(sp *spot) geo.Point {
	return geo.Offset(sp.lm.Pos, s.rng.NormFloat64()*5, s.rng.NormFloat64()*5)
}

// crawlLog emits low-speed FREE records while the taxi waits in line or
// occupies a bay.
func (s *Sim) crawlLog(sp *spot, tx *taxi, epoch uint64) {
	if tx.epoch != epoch || (tx.mode != modeQueued && tx.mode != modeBoarding) {
		return
	}
	tx.pos = s.nearSpot(sp)
	s.emit(tx, mdt.Free, tx.pos, s.speedIn(0, 7))
	s.after(s.crawlGap(), func() { s.crawlLog(sp, tx, epoch) })
}

// taxiRenege pulls a still-waiting taxi out of the line.
func (s *Sim) taxiRenege(sp *spot, entry *queuedTaxi, epoch uint64) {
	if entry.removed || entry.tx.epoch != epoch {
		return
	}
	entry.removed = true
	sp.taxiQLen--
	s.truth.taxiQueueChanged(sp, s.now, sp.taxiQLen+sp.baysBusy)
	s.stats.TaxiReneges++
	tx := entry.tx
	// Departure record at speed with no state change: PEA must discard the
	// whole crawl (rule 3).
	s.emit(tx, mdt.Free, tx.pos, s.speedIn(15, 40))
	s.toRoaming(tx)
}

// spotPaxProcess injects passengers.
func (s *Sim) spotPaxProcess(sp *spot) {
	paxRate, _, bookingFrac := s.rates(sp)
	s.after(s.nextAfter(paxRate), func() { s.spotPaxProcess(sp) })
	if paxRate < 1e-7 {
		return
	}
	// A passenger facing a visible queue is likelier to book instead of
	// lining up (§5.3 notes the booking fee keeps the base rate low, but a
	// long line changes the calculus).
	if sp.paxQLen >= 3 {
		bookingFrac += 0.25 * math.Min(1, float64(sp.paxQLen)/8)
	}
	if s.rng.Float64() < bookingFrac {
		s.spotBooking(sp)
		return
	}
	s.paxJoinsQueue(sp)
}

// paxJoinsQueue adds a street-hail passenger to the spot queue.
func (s *Sim) paxJoinsQueue(sp *spot) {
	p := &pax{arrived: s.now}
	sp.paxQ = append(sp.paxQ, p)
	sp.paxQLen++
	s.truth.paxQueueChanged(sp, s.now, sp.paxQLen)
	patience := s.uniform(8*time.Minute, 22*time.Minute)
	s.after(patience, func() { s.paxRenege(sp, p) })
	s.tryMatch(sp)
}

// paxRenege makes a waiting passenger give up; a share of them fall back to
// booking, which fails exactly when the taxi drought persists (Table 8's
// failed-booking signal).
func (s *Sim) paxRenege(sp *spot, p *pax) {
	if p.removed {
		return
	}
	p.removed = true
	sp.paxQLen--
	s.truth.paxQueueChanged(sp, s.now, sp.paxQLen)
	s.stats.PaxReneges++
	if s.rng.Float64() < 0.8 {
		s.spotBooking(sp)
	}
}

// spotBooking runs a booking request with the spot as pickup point.
func (s *Sim) spotBooking(sp *spot) {
	avail := s.freeTaxisWithin(sp.lm.Pos, s.disp.Radius())
	if !s.disp.Request(s.now, sp.lm.Pos, avail) {
		s.truth.failedBookings++
		s.truth.spotFailedBooking(sp, s.now)
		return
	}
	// The dispatch system sends the booking to the nearest bidding taxi,
	// which is usually a roaming one (stand-head drivers hold out for the
	// street queue): the winner arrives ONCALL and picks its rider up at
	// the curb. This ONCALL departure share is the signal QCD's Routine 2
	// keys on. Only when no roaming taxi can be found does the stand head
	// serve the rider, as a priority passenger through the boarding bay.
	if tx := s.takeNearestPooled(sp.lm.Pos, s.disp.Radius()*3); tx != nil {
		s.runBookingPickupAtSpot(tx, sp)
		return
	}
	if sp.taxiQLen > 0 {
		p := &pax{arrived: s.now}
		sp.priority = append(sp.priority, p)
		sp.paxQLen++
		s.truth.paxQueueChanged(sp, s.now, sp.paxQLen)
		s.tryMatch(sp)
	}
}

// runBookingPickupAtSpot is runBookingPickup plus spot ground-truth
// accounting.
func (s *Sim) runBookingPickupAtSpot(tx *taxi, sp *spot) {
	s.setMode(tx, modeOnCall)
	s.emit(tx, mdt.OnCall, tx.pos, s.speedIn(20, 45))
	travel := s.travelTime(tx.pos, sp.lm.Pos)
	s.after(travel, func() {
		tx.pos = s.nearSpot(sp)
		s.emit(tx, mdt.Arrived, tx.pos, s.speedIn(0, 5))
		if s.rng.Float64() < 0.04 {
			s.after(s.uniform(4*time.Minute, 10*time.Minute), func() {
				s.emit(tx, mdt.NoShow, tx.pos, 0)
				s.stats.NoShows++
				s.after(s.uniform(5*time.Second, 10*time.Second), func() {
					s.emit(tx, mdt.Free, tx.pos, s.speedIn(10, 30))
					s.toRoaming(tx)
				})
			})
			return
		}
		s.after(s.uniform(30*time.Second, 120*time.Second), func() {
			s.emit(tx, mdt.POB, tx.pos, s.speedIn(0, 6))
			s.stats.BookingPickups++
			s.truth.spotPickup(sp)
			s.startTrip(tx, tx.pos)
		})
	})
}

// popTaxi removes and returns the head active taxi entry, or nil.
func (s *Sim) popTaxi(sp *spot) *queuedTaxi {
	for sp.taxiHead < len(sp.taxiQ) {
		e := sp.taxiQ[sp.taxiHead]
		sp.taxiHead++
		if sp.taxiHead > 256 && sp.taxiHead*2 >= len(sp.taxiQ) {
			sp.taxiQ = append(sp.taxiQ[:0], sp.taxiQ[sp.taxiHead:]...)
			sp.taxiHead = 0
		}
		if e.removed {
			continue
		}
		e.removed = true
		sp.taxiQLen--
		return e
	}
	return nil
}

// popPax removes and returns the head active passenger, or nil. Booked
// riders in the priority lane go first.
func (s *Sim) popPax(sp *spot) *pax {
	for len(sp.priority) > 0 {
		p := sp.priority[0]
		sp.priority = sp.priority[1:]
		if p.removed {
			continue
		}
		p.removed = true
		sp.paxQLen--
		return p
	}
	for sp.paxHead < len(sp.paxQ) {
		p := sp.paxQ[sp.paxHead]
		sp.paxHead++
		if sp.paxHead > 256 && sp.paxHead*2 >= len(sp.paxQ) {
			sp.paxQ = append(sp.paxQ[:0], sp.paxQ[sp.paxHead:]...)
			sp.paxHead = 0
		}
		if p.removed {
			continue
		}
		p.removed = true
		sp.paxQLen--
		return p
	}
	return nil
}

// tryMatch pairs waiting taxis with waiting passengers while a bay is free.
func (s *Sim) tryMatch(sp *spot) {
	for sp.baysBusy < 1 && sp.taxiQLen > 0 && sp.paxQLen > 0 {
		entry := s.popTaxi(sp)
		p := s.popPax(sp)
		if entry == nil || p == nil {
			return
		}
		sp.baysBusy++
		// Queue length for the monitor includes bay occupants, so the
		// monitored count is unchanged by the queue->bay move; the pax
		// queue shrank though.
		s.truth.paxQueueChanged(sp, s.now, sp.paxQLen)
		s.truth.paxWait(sp, s.now.Sub(p.arrived))
		tx := entry.tx
		s.setMode(tx, modeBoarding)
		// Keep crawl logging alive through boarding.
		epoch := tx.epoch
		s.after(s.crawlGap(), func() { s.crawlLog(sp, tx, epoch) })
		// Boarding speed is mode-dependent and is what separates the
		// contexts' signatures: a taxi rolling up to waiting passengers is
		// a quick curbside grab; a taxi that sat in a stand line boards at
		// stand pace (the passenger walks to the head bay).
		var board time.Duration
		if sp.taxiQLen > 0 || s.now.Sub(entry.arrived) > 45*time.Second {
			board = s.uniform(70*time.Second, 100*time.Second) // stand mode
		} else {
			board = s.uniform(8*time.Second, 18*time.Second) // curb mode
		}
		s.after(board, func() { s.finishBoarding(sp, tx, entry.arrived) })
	}
}

// finishBoarding emits the POB pickup record and launches the trip.
func (s *Sim) finishBoarding(sp *spot, tx *taxi, queuedAt time.Time) {
	sp.baysBusy--
	s.truth.taxiQueueChanged(sp, s.now, sp.taxiQLen+sp.baysBusy)
	s.emit(tx, mdt.POB, tx.pos, s.speedIn(0, 6))
	s.stats.SpotPickups++
	s.truth.spotPickup(sp)
	s.truth.taxiWait(sp, s.now.Sub(queuedAt))
	s.startTrip(tx, tx.pos)
	s.tryMatch(sp)
}

// spotBusyAbuseProcess reproduces the §7.2 driver-behavior finding: when
// only passengers are queuing, a few taxis slip in with the BUSY state and
// leave with POB, cherry-picking passengers.
func (s *Sim) spotBusyAbuseProcess(sp *spot) {
	s.after(s.uniform(8*time.Minute, 16*time.Minute), func() { s.spotBusyAbuseProcess(sp) })
	if sp.paxQLen < 5 || sp.taxiQLen > 0 {
		return
	}
	if s.rng.Float64() > 0.45 {
		return
	}
	tx := s.poolTakeRandom()
	if tx == nil {
		return
	}
	s.setMode(tx, modeBoarding)
	tx.pos = s.nearSpot(sp)
	s.emit(tx, mdt.Busy, tx.pos, s.speedIn(0, 7))
	if p := s.popPax(sp); p != nil {
		s.truth.paxQueueChanged(sp, s.now, sp.paxQLen)
		s.truth.paxWait(sp, s.now.Sub(p.arrived))
	}
	s.after(s.uniform(30*time.Second, 70*time.Second), func() {
		s.emit(tx, mdt.POB, tx.pos, s.speedIn(0, 6))
		s.stats.BusyStatePicks++
		s.truth.spotBusyPickup(sp)
		s.startTrip(tx, tx.pos)
	})
}
