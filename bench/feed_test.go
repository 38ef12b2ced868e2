package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/core"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/ingest"
	"taxiqueue/internal/mdt"
	"taxiqueue/internal/sim"
)

var testGrid = core.DaySlots(time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC))

// minuteFeed is one record per minute over the grid's day.
func minuteFeed() []mdt.Record {
	var recs []mdt.Record
	for m := 0; m < 24*60; m++ {
		recs = append(recs, mdt.Record{
			Time: testGrid.Start.Add(time.Duration(m) * time.Minute), TaxiID: "T1",
			Pos: geo.Point{Lat: 1.3, Lon: 103.8}, State: mdt.Free,
		})
	}
	return recs
}

func TestPlanFeedPacesByEventTime(t *testing.T) {
	recs := minuteFeed()
	p := planFeed(recs, 30, testGrid, 1800) // one slot per second
	if len(p.batches) != 48 {
		t.Fatalf("%d batches, want 48", len(p.batches))
	}
	for i, b := range p.batches {
		// Batch i holds minutes [30i, 30i+29]: due when its last record
		// happened, 29 minutes into slot i.
		want := time.Duration(i)*time.Second + 29*time.Second/30
		if d := b.due - want; d < -time.Millisecond || d > time.Millisecond {
			t.Errorf("batch %d due %v, want %v", i, b.due, want)
		}
		got, err := decodeBatch(b.body)
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range got {
			if !r.Equal(recs[30*i+j]) {
				t.Fatalf("batch %d record %d does not round-trip the binary encoding", i, j)
			}
		}
	}
	// Slot k closes with the first record in slot k+2: batch k+2.
	for k, b := range p.closing {
		want := k + 2
		if want >= 48 {
			want = -1 // only the end-of-feed flush closes the last two slots
		}
		if b != want {
			t.Errorf("slot %d closing batch %d, want %d", k, b, want)
		}
	}
	if bulk := planFeed(recs, 30, testGrid, 0); bulk.batches[47].due != 0 {
		t.Error("a zero speedup should make every batch due at once")
	}
}

// TestFeedRateIgnoresTheWindow cuts the feed where a window ends: a
// shorter window feeds less of the day at the same speed, so every batch
// keeps its due time.
func TestFeedRateIgnoresTheWindow(t *testing.T) {
	whole := planFeed(minuteFeed(), 30, testGrid, 1800)
	half := planFeed(recordsBefore(minuteFeed(), testGrid.Start.Add(12*time.Hour)), 30, testGrid, 1800)
	if len(half.batches) != 24 {
		t.Fatalf("%d batches in the first half of the day, want 24", len(half.batches))
	}
	for i, b := range half.batches {
		if b.due != whole.batches[i].due {
			t.Errorf("batch %d due %v in the half day, %v in the whole", i, b.due, whole.batches[i].due)
		}
	}
	for k, b := range half.closing {
		want := whole.closing[k]
		if k+2 >= 24 {
			want = -1 // the half day has no record in slot k+2
		}
		if b != want {
			t.Errorf("slot %d closing batch %d in the half day, want %d", k, b, want)
		}
	}
}

func TestSurgeDayMultipliesTheFleet(t *testing.T) {
	city := citymap.Generate(3, 0.02)
	taxis := func(recs []mdt.Record) int {
		ids := map[string]bool{}
		for _, r := range recs {
			ids[r.TaxiID] = true
		}
		return len(ids)
	}
	base := taxis(sim.Run(sim.Config{Seed: 3, City: city, InjectFaults: true}).Records)
	surge := taxis(surgeDay(3, city, 3))
	if surge < 2*base {
		t.Fatalf("surge day has %d taxis against %d at the base fleet", surge, base)
	}
}

// stubFeedServer accepts binary /ingest batches and answers /context for
// a slot with every cell final once it has seen a record two slots later,
// as the stream engine's one-slot lag does.
type stubFeedServer struct {
	mu      sync.Mutex
	top     int // highest slot index seen
	records int
	context int // /context requests served
}

func (s *stubFeedServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/ingest":
		if r.Header.Get("Content-Type") != ingest.ContentTypeBinary {
			http.Error(w, "binary only", http.StatusBadRequest)
			return
		}
		body, _ := io.ReadAll(r.Body)
		recs, err := decodeBatch(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		s.records += len(recs)
		for _, rec := range recs {
			s.top = max(s.top, testGrid.Index(rec.Time))
		}
		s.mu.Unlock()
	case "/context":
		at, err := time.Parse(time.RFC3339, r.URL.Query().Get("at"))
		if err != nil {
			http.Error(w, "bad at", http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		s.context++
		final := testGrid.Index(at)+2 <= s.top
		s.mu.Unlock()
		if final {
			w.Write([]byte(`[{"spot":0,"context":"C1","final":true}]`))
		} else {
			w.Write([]byte(`[{"spot":0,"context":"unidentified","final":false}]`))
		}
	default:
		w.Write([]byte("[]"))
	}
}

// TestFeedAndProber runs a paced binary feed beside a read schedule that
// carries the freshness prober: every slot the feed can close is seen
// final, probes are not read samples, and freshness is measured from the
// closing batch's due time.
func TestFeedAndProber(t *testing.T) {
	stub := &stubFeedServer{top: -1}
	srv := httptest.NewServer(stub)
	defer srv.Close()
	c := newClient(srv.URL, 2)
	defer c.close()

	recs := minuteFeed()
	plan := planFeed(recs, 10, testGrid, 90000) // 20ms per slot
	start := time.Now()
	pr := newProber(c, testGrid, plan, start)
	var wg sync.WaitGroup
	var feedS []sample
	wg.Add(1)
	go func() {
		defer wg.Done()
		feedS = schedule{
			n:   len(plan.batches),
			due: func(i int) time.Duration { return plan.batches[i].due },
			do:  func(i int) bool { return c.postBatch(plan.batches[i]) },
		}.run(context.Background(), start)
	}()
	const reads = 500 // 500 Hz over the feed's second
	readS := schedule{
		n:    reads,
		due:  func(i int) time.Duration { return time.Duration(i) * 2 * time.Millisecond },
		do:   func(int) bool { return c.fetch("/spots") },
		idle: pr.idle,
	}.run(context.Background(), start)
	wg.Wait()
	pr.drain(context.Background(), time.Now().Add(time.Second))

	if len(readS) != reads || len(feedS) != len(plan.batches) {
		t.Fatalf("%d reads and %d batches sent, want %d and %d", len(readS), len(feedS), reads, len(plan.batches))
	}
	for _, s := range feedS {
		if s.lat == inf {
			t.Fatal("a batch failed")
		}
	}
	if stub.records != len(recs) {
		t.Errorf("stub received %d records, want %d", stub.records, len(recs))
	}
	if len(pr.fresh) != 46 {
		t.Errorf("%d freshness samples, want 46 (slots 46 and 47 close only on flush)", len(pr.fresh))
	}
	if stub.context != pr.probes {
		t.Errorf("stub saw %d /context requests but the prober sent %d", stub.context, pr.probes)
	}
	for k, f := range pr.fresh {
		// The stub makes a slot final as soon as its closing batch lands, so
		// freshness is the batch's own latency plus the wait for a probe.
		if f < 0 || f > 200 {
			t.Errorf("slot %d freshness %.2fms outside [0, 200]", k, f)
		}
	}
}
