package core

import (
	"time"

	"taxiqueue/internal/mdt"
)

// Wait is one taxi wait interval extracted from a pickup sub-trajectory by
// the Wait Time Extraction algorithm (Algorithm 2).
type Wait struct {
	// Start is the wait start time: the timestamp of the first FREE,
	// ONCALL or ARRIVED record (re-armed after any PAYMENT).
	Start time.Time
	// End is the wait end time: the timestamp of the first POB record
	// after Start.
	End time.Time
	// StartState is the state that set Start; FREE identifies a street
	// job, ONCALL/ARRIVED a booking job (§5.2 uses street jobs only for
	// the average wait).
	StartState mdt.State
}

// Duration returns the wait time t_end - t_start.
func (w Wait) Duration() time.Duration { return w.End.Sub(w.Start) }

// Street reports whether the wait belongs to a street job (Start set by a
// FREE record).
func (w Wait) Street() bool { return w.StartState == mdt.Free }

// ExtractWait is the Wait Time Extraction algorithm (Algorithm 2) on a
// single pickup sub-trajectory: ok is false when no valid (start, end) pair
// exists.
func ExtractWait(sub mdt.Trajectory) (Wait, bool) {
	var w Wait
	started, ended := false, false
	for _, p := range sub {
		switch {
		case (p.State == mdt.Free || p.State == mdt.OnCall || p.State == mdt.Arrived) && !started:
			w.Start = p.Time
			w.StartState = p.State
			started = true
		case p.State == mdt.Payment && started:
			// A payment inside the run means the earlier "wait" was the
			// tail of the previous job: re-arm.
			started, ended = false, false
		case p.State == mdt.POB && started && !ended:
			w.End = p.Time
			ended = true
		}
	}
	if !started || !ended {
		return Wait{}, false
	}
	return w, true
}

// ExtractWaits returns the taxi wait set Y(r) of a spot's pickup-event set
// W(r), in input order: the wait WTE found in each pickup's run when PEA
// committed it.
func ExtractWaits(pickups []Pickup) []Wait {
	out := make([]Wait, 0, len(pickups))
	for i := range pickups {
		if pickups[i].HasWait {
			out = append(out, pickups[i].Wait)
		}
	}
	return out
}
