package dispatch

import (
	"testing"
	"time"

	"taxiqueue/internal/geo"
)

var (
	spotA = geo.Point{Lat: 1.30, Lon: 103.83}
	spotB = geo.Point{Lat: 1.36, Lon: 103.99}
	t0    = time.Date(2026, 1, 5, 8, 0, 0, 0, time.UTC)
)

func TestRequestOutcome(t *testing.T) {
	var d Dispatcher
	if !d.Request(t0, "A", spotA, 3) {
		t.Error("request with 3 taxis available failed")
	}
	if d.Request(t0.Add(time.Minute), "A", spotA, 0) {
		t.Error("request with 0 taxis available succeeded")
	}
	total, failed := d.Totals()
	if total != 2 || failed != 1 {
		t.Fatalf("Totals = (%d, %d), want (2, 1)", total, failed)
	}
}

func TestDefaultRadius(t *testing.T) {
	var d Dispatcher
	if d.Radius() != DefaultRadiusMeters {
		t.Fatalf("default radius = %g", d.Radius())
	}
	d.RadiusMeters = 500
	if d.Radius() != 500 {
		t.Fatalf("custom radius = %g", d.Radius())
	}
}

func TestFailedNear(t *testing.T) {
	var d Dispatcher
	d.Request(t0, "A", spotA, 0)
	d.Request(t0, "B", spotB, 0)
	near := d.FailedNear(spotA, 200, t0.Add(-time.Minute), t0.Add(time.Minute))
	if near != 1 {
		t.Fatalf("FailedNear(spotA) = %d, want 1", near)
	}
	// spotA and spotB are ~18 km apart; a 1 km circle sees only one.
	all := d.FailedNear(spotA, 50000, t0.Add(-time.Minute), t0.Add(time.Minute))
	if all != 2 {
		t.Fatalf("FailedNear(island) = %d, want 2", all)
	}
}

func TestConcurrentRequests(t *testing.T) {
	var d Dispatcher
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				d.Request(t0.Add(time.Duration(i)*time.Second), "A", spotA, i%3)
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	total, failed := d.Totals()
	if total != 800 {
		t.Fatalf("total = %d, want 800", total)
	}
	// i%3==0 fails: 34 of 100 per goroutine.
	if failed != 8*34 {
		t.Fatalf("failed = %d, want %d", failed, 8*34)
	}
}
