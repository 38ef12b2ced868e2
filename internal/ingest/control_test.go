package ingest

import (
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
)

// withDeadline fails the test if fn has not returned after d — the guard
// that turns a control-plane deadlock into a fast failure instead of a
// hung test binary.
func withDeadline(t *testing.T, d time.Duration, what string, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("%s did not return within %v (control-plane deadlock)", what, d)
		return nil
	}
}

// TestControlAfterCloseReturnsErrClosed: Flush, FlushUntil and Checkpoint
// after Close must fail fast with ErrClosed. They used to post control ops
// to workers that had already exited and block forever on the reply.
func TestControlAfterCloseReturnsErrClosed(t *testing.T) {
	stall := make(chan struct{})
	close(stall)
	svc, err := NewService(tinyConfig(stall))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	ops := map[string]func() error{
		"Flush":      svc.Flush,
		"FlushUntil": func() error { return svc.FlushUntil(time.Now()) },
		"Checkpoint": svc.Checkpoint,
	}
	for name, op := range ops {
		// Repeat: the old bug only wedged once the dead shard's ctl buffer
		// (cap 4) filled, so a single call could appear to succeed.
		for i := 0; i < 10; i++ {
			if err := withDeadline(t, 5*time.Second, name, op); !errors.Is(err, ErrClosed) {
				t.Fatalf("%s after Close: err %v, want ErrClosed", name, err)
			}
		}
	}
	if err := withDeadline(t, 5*time.Second, "second Close", svc.Close); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestControlAfterAbortReturnsErrClosed: the crash-test shutdown must gate
// the control plane the same way the graceful one does.
func TestControlAfterAbortReturnsErrClosed(t *testing.T) {
	stall := make(chan struct{})
	close(stall)
	svc, err := NewService(tinyConfig(stall))
	if err != nil {
		t.Fatal(err)
	}
	svc.Abort()
	if err := withDeadline(t, 5*time.Second, "Flush", svc.Flush); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Abort: err %v, want ErrClosed", err)
	}
	if _, err := svc.Accept(burst(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Accept after Abort: err %v, want ErrClosed", err)
	}
}

// TestFlushHandlerAfterClose: the HTTP face of the same bug — POST
// /ingest/flush on a closed service must answer 503 promptly, not hang the
// request forever.
func TestFlushHandlerAfterClose(t *testing.T) {
	stall := make(chan struct{})
	close(stall)
	svc, err := NewService(tinyConfig(stall))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	err = withDeadline(t, 5*time.Second, "HandleFlush", func() error {
		w := httptest.NewRecorder()
		svc.HandleFlush(w, httptest.NewRequest("POST", "/ingest/flush", nil))
		if w.Code != 503 {
			t.Errorf("flush after close: status %d, want 503", w.Code)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestControlRacingClose: control ops racing Close from many goroutines
// must all return promptly — either success (they won the race) or
// ErrClosed — never hang on a reply from an exited worker.
func TestControlRacingClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		stall := make(chan struct{})
		close(stall)
		svc, err := NewService(tinyConfig(stall))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		fail := make(chan error, 16)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 5; i++ {
					if err := svc.Flush(); err != nil && !errors.Is(err, ErrClosed) {
						fail <- err
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := svc.Close(); err != nil {
				fail <- err
			}
		}()
		close(start)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatal("Flush racing Close deadlocked")
		}
		close(fail)
		for err := range fail {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestFlushUnderSustainedLoad: a producer that keeps every queue full must
// not starve the control plane. The worker loop used to give records
// absolute priority, so Flush waited for a quiescent queue that never
// came; the fair select bounds the wait at roughly one queue depth.
func TestFlushUnderSustainedLoad(t *testing.T) {
	stall := make(chan struct{})
	close(stall)
	cfg := tinyConfig(stall)
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		base := time.Date(2026, 1, 5, 6, 0, 0, 0, time.UTC)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			recs := burst(64)
			for j := range recs {
				recs[j].Time = base.Add(time.Duration(i*64+j) * time.Second)
			}
			for n := 0; n < len(recs); {
				k, err := svc.Accept(recs[n:])
				n += k
				if errors.Is(err, ErrBackpressure) {
					continue
				}
				if err != nil {
					return
				}
			}
		}
	}()
	for i := 0; i < 5; i++ {
		if err := withDeadline(t, 10*time.Second, "Flush under load", svc.Flush); err != nil {
			t.Fatalf("flush %d under sustained load: %v", i, err)
		}
		if err := withDeadline(t, 10*time.Second, "Checkpoint under load", svc.Checkpoint); err != nil {
			t.Fatalf("checkpoint %d under sustained load: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAggregatorReadsDontGrow: scraping contexts for slots no shard ever
// fed must not allocate cells — the read path used to cache a cell per
// queried (spot, slot), so a dashboard walking the grid grew the map
// without bound.
func TestAggregatorReadsDontGrow(t *testing.T) {
	stall := make(chan struct{})
	close(stall)
	svc, err := NewService(tinyConfig(stall))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// Finalize the whole (empty) grid, then read every slot — twice, so
	// cached empty contexts are exercised too.
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for j := 0; j < svc.grid.Slots; j++ {
			if _, _, ok := svc.Snapshot().Context(0, j); !ok {
				t.Fatalf("slot %d not final after Flush", j)
			}
		}
	}
	if n := svc.agg.cellCount(); n != 0 {
		t.Fatalf("aggregator retained %d cells after a read-only sweep of an empty grid", n)
	}

	// A fresh service fed real queue activity (a slow Free phase ending in
	// a POB pickup at the spot) still caches only the active cells.
	svc2, err := NewService(tinyConfig(stall))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	base := time.Date(2026, 1, 5, 6, 0, 0, 0, time.UTC)
	pos := geo.Point{Lat: 1.3, Lon: 103.8}
	var act []mdt.Record
	for i := 0; i < 10; i++ {
		act = append(act, mdt.Record{
			Time: base.Add(time.Duration(i) * 30 * time.Second), TaxiID: "SH0001A",
			Pos: pos, Speed: 2, State: mdt.Free,
		})
	}
	// The pickup itself: POB while still slow (the state change must land
	// inside the low-speed run), then speeding away commits the run.
	act = append(act,
		mdt.Record{Time: base.Add(5 * time.Minute), TaxiID: "SH0001A",
			Pos: pos, Speed: 2, State: mdt.POB},
		mdt.Record{Time: base.Add(6 * time.Minute), TaxiID: "SH0001A",
			Pos: pos, Speed: 30, State: mdt.POB},
	)
	if _, err := svc2.Accept(act); err != nil {
		t.Fatal(err)
	}
	if err := svc2.Flush(); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < svc2.grid.Slots; j++ {
		svc2.Snapshot().Context(0, j)
	}
	n := svc2.agg.cellCount()
	if n == 0 {
		t.Fatal("no cells retained for a fed slot")
	}
	if n >= svc2.grid.Slots {
		t.Fatalf("%d cells retained for a one-slot feed over a %d-slot grid", n, svc2.grid.Slots)
	}
}
