package mdt

import "testing"

func TestStateStringRoundTrip(t *testing.T) {
	for s := State(0); int(s) < NumStates; s++ {
		got, err := ParseState(s.String())
		if err != nil {
			t.Fatalf("ParseState(%q): %v", s.String(), err)
		}
		if got != s {
			t.Fatalf("round trip %v -> %v", s, got)
		}
	}
}

func TestParseStateUnknown(t *testing.T) {
	if _, err := ParseState("ZOOMING"); err == nil {
		t.Fatal("ParseState accepted unknown state")
	}
	if _, err := ParseState("free"); err == nil {
		t.Fatal("ParseState is case-sensitive by design; lowercase accepted")
	}
}

func TestStateSetsPartition(t *testing.T) {
	// Θ, Ψ, Λ and {BUSY} partition the 11 states (§4.1).
	for s := State(0); int(s) < NumStates; s++ {
		n := 0
		if s.Occupied() {
			n++
		}
		if s.Unoccupied() {
			n++
		}
		if s.NonOperational() {
			n++
		}
		if s == Busy {
			n++
		}
		if n != 1 {
			t.Errorf("state %v belongs to %d sets, want exactly 1", s, n)
		}
	}
}

func TestStateSetMembership(t *testing.T) {
	occupied := []State{POB, STC, Payment}
	for _, s := range occupied {
		if !s.Occupied() {
			t.Errorf("%v not in occupied set", s)
		}
	}
	unoccupied := []State{Free, OnCall, Arrived, NoShow}
	for _, s := range unoccupied {
		if !s.Unoccupied() {
			t.Errorf("%v not in unoccupied set", s)
		}
	}
	nonOp := []State{Break, Offline, PowerOff}
	for _, s := range nonOp {
		if !s.NonOperational() {
			t.Errorf("%v not in non-operational set", s)
		}
	}
}

func TestLegalTransitionStreetJob(t *testing.T) {
	// The full §2.2 street-job cycle must be legal.
	cycle := []State{Free, POB, STC, Payment, Free}
	for i := 1; i < len(cycle); i++ {
		if !LegalTransition(cycle[i-1], cycle[i]) {
			t.Errorf("street job step %v -> %v illegal", cycle[i-1], cycle[i])
		}
	}
	// STC is sometimes skipped (§6.1.1 missing intermediate states).
	if !LegalTransition(POB, Payment) {
		t.Error("POB -> PAYMENT (STC skipped) illegal")
	}
}

func TestLegalTransitionBookingJob(t *testing.T) {
	cases := [][2]State{
		{Free, OnCall}, {STC, OnCall}, {OnCall, Arrived},
		{Arrived, POB}, {Arrived, NoShow}, {NoShow, Free}, {OnCall, POB},
	}
	for _, c := range cases {
		if !LegalTransition(c[0], c[1]) {
			t.Errorf("booking job transition %v -> %v illegal", c[0], c[1])
		}
	}
}

func TestIllegalTransitions(t *testing.T) {
	cases := [][2]State{
		{POB, Free},      // must pass through PAYMENT
		{Payment, POB},   // payment cannot restart a trip
		{Free, Arrived},  // ARRIVED requires ONCALL first
		{PowerOff, Free}, // booting lands in OFFLINE
		{POB, OnCall},    // occupied taxi cannot bid
		{NoShow, POB},    // NOSHOW resolves to FREE first
	}
	for _, c := range cases {
		if LegalTransition(c[0], c[1]) {
			t.Errorf("transition %v -> %v should be illegal", c[0], c[1])
		}
	}
}

func TestSelfTransitionsLegal(t *testing.T) {
	for s := State(0); int(s) < NumStates; s++ {
		if !LegalTransition(s, s) {
			t.Errorf("self transition %v illegal", s)
		}
	}
}

func TestLegalTransitionInvalidStates(t *testing.T) {
	if LegalTransition(State(200), Free) || LegalTransition(Free, State(200)) {
		t.Error("transition involving invalid state reported legal")
	}
}

func TestEveryStateReachableFromFree(t *testing.T) {
	// BFS over the diagram: all 11 states must be reachable from FREE,
	// otherwise the simulator could never exercise them.
	seen := map[State]bool{Free: true}
	frontier := []State{Free}
	for len(frontier) > 0 {
		s := frontier[0]
		frontier = frontier[1:]
		for n := State(0); int(n) < NumStates; n++ {
			if LegalTransition(s, n) && !seen[n] {
				seen[n] = true
				frontier = append(frontier, n)
			}
		}
	}
	for s := State(0); int(s) < NumStates; s++ {
		if !seen[s] {
			t.Errorf("state %v unreachable from FREE", s)
		}
	}
}
