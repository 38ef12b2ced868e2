// Package dispatch models the taxi operator's booking backend described in
// §2.2 and §6.2.2: booking requests are dispatched to FREE/STC taxis inside
// a dispatching circle (radius 1 km in the paper) centered at the pickup
// location; a booking with no available taxi inside the circle is recorded
// as a failed booking. The failed-booking ledger is the validation data
// source behind Table 8.
package dispatch

import (
	"sync"
	"time"

	"taxiqueue/internal/geo"
)

// DefaultRadiusMeters is the paper's dispatching-circle radius (§6.2.2).
const DefaultRadiusMeters = 1000

// Booking is one booking request processed by the dispatcher.
type Booking struct {
	Time   time.Time
	Pickup geo.Point
	Failed bool
}

// Dispatcher decides booking outcomes and keeps the ledger. It is safe for
// concurrent use.
type Dispatcher struct {
	// RadiusMeters is the dispatching-circle radius; DefaultRadiusMeters
	// when zero.
	RadiusMeters float64

	mu     sync.Mutex
	ledger []Booking
}

// Radius returns the effective dispatching radius.
func (d *Dispatcher) Radius() float64 {
	if d.RadiusMeters <= 0 {
		return DefaultRadiusMeters
	}
	return d.RadiusMeters
}

// Request records a booking attempt at the given pickup location.
// availableInCircle is the number of FREE/STC taxis the caller found inside
// the dispatching circle; the booking succeeds iff it is positive. Request
// returns true on success.
func (d *Dispatcher) Request(now time.Time, pickup geo.Point, availableInCircle int) bool {
	b := Booking{Time: now, Pickup: pickup, Failed: availableInCircle <= 0}
	d.mu.Lock()
	d.ledger = append(d.ledger, b)
	d.mu.Unlock()
	return !b.Failed
}

// FailedNear returns the number of failed bookings within radiusMeters of
// pos with time in [from, to). This is how the engine joins failed bookings
// to detected queue spots.
func (d *Dispatcher) FailedNear(pos geo.Point, radiusMeters float64, from, to time.Time) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, b := range d.ledger {
		if b.Failed && !b.Time.Before(from) && b.Time.Before(to) &&
			geo.Equirect(pos, b.Pickup) <= radiusMeters {
			n++
		}
	}
	return n
}

// Totals returns the total and failed booking counts.
func (d *Dispatcher) Totals() (total, failed int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, b := range d.ledger {
		if b.Failed {
			failed++
		}
	}
	return len(d.ledger), failed
}
