package core

import (
	"testing"
	"time"

	"taxiqueue/internal/mdt"
)

func TestWTEStreetWait(t *testing.T) {
	sub := traj(
		[3]float64{0, 4, st(mdt.Free)},
		[3]float64{60, 3, st(mdt.Free)},
		[3]float64{300, 2, st(mdt.POB)},
	)
	w, ok := ExtractWait(sub)
	if !ok {
		t.Fatal("no wait extracted")
	}
	if !w.Street() {
		t.Error("street wait not classified as street")
	}
	if w.Duration() != 300*time.Second {
		t.Fatalf("wait = %v, want 5m", w.Duration())
	}
}

func TestWTEBookingWaitFromArrived(t *testing.T) {
	sub := traj(
		[3]float64{0, 3, st(mdt.Arrived)},
		[3]float64{90, 2, st(mdt.POB)},
	)
	w, ok := ExtractWait(sub)
	if !ok {
		t.Fatal("no wait extracted")
	}
	if w.Street() {
		t.Error("ARRIVED wait classified as street")
	}
	if w.StartState != mdt.Arrived || w.Duration() != 90*time.Second {
		t.Fatalf("wait = %+v", w)
	}
}

func TestWTEPaymentResetsStart(t *testing.T) {
	// Dropoff-then-pickup: the wait must start at the FREE after PAYMENT,
	// not at the initial POB/PAYMENT.
	sub := traj(
		[3]float64{0, 2, st(mdt.POB)},
		[3]float64{40, 1, st(mdt.Payment)},
		[3]float64{100, 1, st(mdt.Free)},
		[3]float64{400, 2, st(mdt.POB)},
	)
	w, ok := ExtractWait(sub)
	if !ok {
		t.Fatal("no wait extracted")
	}
	if w.Start != t0.Add(100*time.Second) {
		t.Fatalf("start = %v, want FREE at +100s", w.Start)
	}
	if w.Duration() != 300*time.Second {
		t.Fatalf("wait = %v, want 5m", w.Duration())
	}
}

func TestWTEPaymentAfterStartRearms(t *testing.T) {
	// FREE ... PAYMENT ... FREE ... POB: the PAYMENT cancels the first
	// start; the wait is measured from the second FREE.
	sub := traj(
		[3]float64{0, 2, st(mdt.Free)},
		[3]float64{50, 1, st(mdt.Payment)},
		[3]float64{120, 1, st(mdt.Free)},
		[3]float64{240, 2, st(mdt.POB)},
	)
	w, ok := ExtractWait(sub)
	if !ok {
		t.Fatal("no wait extracted")
	}
	if w.Start != t0.Add(120*time.Second) || w.Duration() != 120*time.Second {
		t.Fatalf("wait = %+v", w)
	}
}

func TestWTENoPOBNoWait(t *testing.T) {
	sub := traj(
		[3]float64{0, 2, st(mdt.Free)},
		[3]float64{60, 1, st(mdt.Free)},
	)
	if _, ok := ExtractWait(sub); ok {
		t.Fatal("wait extracted without POB")
	}
}

func TestWTEFirstPOBOnlyEndsWait(t *testing.T) {
	sub := traj(
		[3]float64{0, 2, st(mdt.Free)},
		[3]float64{100, 1, st(mdt.POB)},
		[3]float64{200, 2, st(mdt.POB)},
	)
	w, ok := ExtractWait(sub)
	if !ok || w.End != t0.Add(100*time.Second) {
		t.Fatalf("wait end = %v, want first POB", w.End)
	}
}

func TestWTENonNegativeWaits(t *testing.T) {
	sub := traj(
		[3]float64{0, 2, st(mdt.Free)},
		[3]float64{0, 1, st(mdt.POB)}, // same-second pickup
	)
	w, ok := ExtractWait(sub)
	if !ok || w.Duration() < 0 {
		t.Fatalf("negative or missing wait: %+v ok=%v", w, ok)
	}
}

func TestExtractWaitsSkipsWaitless(t *testing.T) {
	var pickups []Pickup
	for _, first := range []mdt.State{mdt.Free, mdt.Busy} { // a BUSY pickup has no wait
		pickups = append(pickups, ExtractPickups(traj(
			[3]float64{0, 2, st(first)},
			[3]float64{60, 1, st(mdt.POB)},
			[3]float64{120, 30, st(mdt.POB)},
		), 10)...)
	}
	if len(pickups) != 2 {
		t.Fatalf("pickups = %d, want 2", len(pickups))
	}
	waits := ExtractWaits(pickups)
	if len(waits) != 1 || waits[0] != pickups[0].Wait {
		t.Fatalf("waits = %+v, want only the street pickup's %+v", waits, pickups[0].Wait)
	}
}
