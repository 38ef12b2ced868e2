// Package mdt models the Mobile Data Terminal telemetry described in §2 of
// the paper: the 11 taxi states (Table 1), the state-transition diagram
// (Fig. 3), and the event-driven MDT log record (Table 2) with text and
// binary codecs.
package mdt

import "fmt"

// State is one of the 11 taxi states an MDT reports (Table 1).
type State uint8

const (
	// Free: taxi unoccupied and ready for taking new passengers or bookings.
	Free State = iota
	// POB: passenger on board and taximeter running.
	POB
	// STC: taxi soon to clear the current job and ready for new bookings.
	STC
	// Payment: passenger making payment and taximeter paused.
	Payment
	// OnCall: taxi unoccupied, but accepted a new booking job.
	OnCall
	// Arrived: taxi arrived at the booking pickup location, waiting for
	// the passenger.
	Arrived
	// NoShow: no passenger showing up; the booking is canceled soon.
	NoShow
	// Busy: taxi driver temporarily unavailable due to a personal reason.
	Busy
	// Break: taxi on a break and driver logged on MDT.
	Break
	// Offline: taxi on a break and driver logged off from MDT.
	Offline
	// PowerOff: MDT shut down and not working.
	PowerOff

	numStates = iota
)

// NumStates is the number of distinct taxi states (11, per Table 1).
const NumStates = int(numStates)

var stateNames = [numStates]string{
	Free:     "FREE",
	POB:      "POB",
	STC:      "STC",
	Payment:  "PAYMENT",
	OnCall:   "ONCALL",
	Arrived:  "ARRIVED",
	NoShow:   "NOSHOW",
	Busy:     "BUSY",
	Break:    "BREAK",
	Offline:  "OFFLINE",
	PowerOff: "POWEROFF",
}

// String returns the canonical log-file spelling of the state.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("STATE(%d)", uint8(s))
}

// Valid reports whether s is one of the 11 defined states.
func (s State) Valid() bool { return int(s) < NumStates }

// ParseState parses the canonical spelling (e.g. "FREE", "POB").
func ParseState(text string) (State, error) {
	for i, name := range stateNames {
		if name == text {
			return State(i), nil
		}
	}
	return 0, fmt.Errorf("mdt: unknown taxi state %q", text)
}

// The paper's three state sets (Definitions 5.1-5.3). BUSY belongs to none
// of them and is handled separately (§4.1, §7.2).

// Occupied reports whether s is in the taxi occupied state set
// Θ = {POB, STC, PAYMENT}.
func (s State) Occupied() bool { return s == POB || s == STC || s == Payment }

// Unoccupied reports whether s is in the taxi unoccupied state set
// Ψ = {FREE, ONCALL, ARRIVED, NOSHOW}.
func (s State) Unoccupied() bool {
	return s == Free || s == OnCall || s == Arrived || s == NoShow
}

// NonOperational reports whether s is in the non-operational state set
// Λ = {BREAK, OFFLINE, POWEROFF}.
func (s State) NonOperational() bool {
	return s == Break || s == Offline || s == PowerOff
}

// legalNext encodes the state-transition diagram of Fig. 3. A transition
// s -> t is legal iff legalNext[s] has bit t set. Self-transitions are
// always legal (the MDT re-logs the current state on GPS updates).
var legalNext = func() [numStates]uint16 {
	bit := func(states ...State) (m uint16) {
		for _, s := range states {
			m |= 1 << s
		}
		return m
	}
	var t [numStates]uint16
	// Street job: FREE -> POB -> STC -> PAYMENT -> FREE. STC may be
	// skipped (driver omits the button press): POB -> PAYMENT is legal.
	// Booking job: FREE/STC -> ONCALL -> ARRIVED -> {POB | NOSHOW};
	// NOSHOW -> FREE within 10 seconds.
	// Driver availability: FREE <-> BUSY, FREE <-> BREAK,
	// BREAK <-> OFFLINE, OFFLINE/BREAK -> POWEROFF, POWEROFF -> OFFLINE
	// (MDT boots logged-off). BUSY -> POB models the §7.2 driver-behavior
	// finding (picking favorite passengers straight out of BUSY).
	t[Free] = bit(POB, OnCall, Busy, Break)
	t[POB] = bit(STC, Payment)
	t[STC] = bit(Payment, OnCall)
	t[Payment] = bit(Free)
	t[OnCall] = bit(Arrived, POB, Free) // Free: booking canceled en route
	t[Arrived] = bit(POB, NoShow)
	t[NoShow] = bit(Free)
	t[Busy] = bit(Free, POB, Break)
	t[Break] = bit(Free, Offline, PowerOff)
	t[Offline] = bit(Break, PowerOff)
	t[PowerOff] = bit(Offline)
	for s := State(0); s < numStates; s++ {
		t[s] |= 1 << s // self-transition
	}
	return t
}()

// LegalTransition reports whether the transition from -> to is permitted by
// the Fig. 3 state-transition diagram (self-transitions included, since the
// event-driven log re-emits the current state on GPS updates).
func LegalTransition(from, to State) bool {
	if !from.Valid() || !to.Valid() {
		return false
	}
	return legalNext[from]&(1<<to) != 0
}
