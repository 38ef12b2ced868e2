package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestScheduleTimesFromDueTime drives a 1 kHz open-loop schedule against a
// stub that stalls once for 200ms. Every arrival must still be sent, and
// each request the stall held back must be charged the wait from its due
// time: a generator that timed requests from when it sent them, or whose
// ticker dropped the arrivals it missed, would report a sub-millisecond
// p99 here.
func TestScheduleTimesFromDueTime(t *testing.T) {
	var calls atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 100 {
			time.Sleep(200 * time.Millisecond)
		}
		if r.URL.Path == "/fail" {
			http.Error(w, "no", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer stub.Close()
	c := newClient(stub.URL, 1)
	defer c.close()

	const n = 600
	paths := make([]string, n)
	for i := range paths {
		paths[i] = "/ok"
	}
	paths[n-1] = "/fail"
	got := schedule{
		n:   n,
		due: func(i int) time.Duration { return time.Duration(i) * time.Millisecond },
		do:  func(i int) bool { return c.fetch(paths[i]) },
	}.run(context.Background(), time.Now())

	if len(got) != n {
		t.Fatalf("sent %d of %d arrivals", len(got), n)
	}
	lat := make([]float64, 0, n)
	var late []float64
	for _, s := range got {
		lat = append(lat, s.lat)
		late = append(late, s.late)
	}
	if !math.IsInf(got[n-1].lat, 1) {
		t.Errorf("failed request latency = %v, want +Inf", got[n-1].lat)
	}
	// Requests due during the stall wait for it: about 200 of the 600 are
	// held back by 0 to 200ms, so the p99 sits near the stall's length.
	if p99 := quantile(lat, 0.99); p99 < 150 {
		t.Errorf("p99 = %.2fms, want the 200ms stall to show (>= 150ms)", p99)
	}
	if p50 := quantile(lat, 0.5); p50 > 150 {
		t.Errorf("p50 = %.2fms: the stall should not reach the median", p50)
	}
	// The stall is the server's: the generator itself was never late by it.
	if m := quantile(late, 0.9); m > 5 {
		t.Errorf("generator lateness p90 = %.2fms, want it to exclude the server's stall", m)
	}
}

// TestLateGeneratorIsFlagged stalls the generator itself for 3ms before
// every send of a 1 kHz schedule: the run must be flagged. The same
// schedule without the stall must pass the check in one of three tries: a
// busy host (or the collector after TestSmoke) can delay any single one.
func TestLateGeneratorIsFlagged(t *testing.T) {
	run := func(stall time.Duration) []sample {
		return schedule{
			n:    500,
			due:  func(i int) time.Duration { return time.Duration(i) * time.Millisecond },
			do:   func(int) bool { return true },
			idle: func() bool { time.Sleep(stall); return false },
		}.run(context.Background(), time.Now())
	}
	if err := checkLate(lateness(run(3 * time.Millisecond))); err == nil {
		t.Error("a generator 3ms late on every send passed the lateness check")
	}
	var err error
	for try := 0; try < 3; try++ {
		if err = checkLate(lateness(run(0))); err == nil {
			return
		}
	}
	t.Errorf("an on-time generator failed the lateness check three times: %v", err)
}

// TestScheduleStopsOnCancel checks that a cancelled run returns the
// samples of what it sent.
func TestScheduleStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sent := 0
	got := schedule{
		n:   10,
		due: func(i int) time.Duration { return time.Duration(i) * time.Hour },
		do:  func(int) bool { sent++; cancel(); return true },
	}.run(ctx, time.Now())
	if len(got) != 1 || sent != 1 {
		t.Fatalf("got %d samples after %d sends, want 1", len(got), sent)
	}
}
