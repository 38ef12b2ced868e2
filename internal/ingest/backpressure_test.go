package ingest

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/clean"
	"taxiqueue/internal/core"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
	"taxiqueue/internal/stream"
)

// tinyConfig is a minimal single-shard service with a controllable stall.
func tinyConfig(stall chan struct{}) Config {
	grid := core.DaySlots(time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC))
	return Config{
		Stream: stream.Config{
			Spots:      []core.QueueSpot{{Pos: geo.Point{Lat: 1.3, Lon: 103.8}}},
			Thresholds: []core.Thresholds{{}},
			Grid:       grid,
		},
		Clean:        clean.Config{ValidFrame: citymap.Island},
		Shards:       1,
		testStall:    func(int) { <-stall },
		queueDepth:   8,
		blockTimeout: 150 * time.Millisecond,
	}
}

func burst(n int) []mdt.Record {
	base := time.Date(2026, 1, 5, 6, 0, 0, 0, time.UTC)
	recs := make([]mdt.Record, n)
	for i := range recs {
		recs[i] = mdt.Record{
			Time: base.Add(time.Duration(i) * time.Second), TaxiID: "SH0001A",
			Pos: geo.Point{Lat: 1.3, Lon: 103.8}, Speed: 30, State: mdt.Free,
		}
	}
	return recs
}

// TestBlockReturns429: with the worker wedged, the HTTP handler must answer
// 429 once the deadline passes, reporting the accepted prefix so the
// client can retry the rest.
func TestBlockReturns429(t *testing.T) {
	stall := make(chan struct{})
	cfg := tinyConfig(stall)
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := EncodeJSONLines(&body, burst(100)); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/ingest", &body)
	req.Header.Set("Content-Type", ContentTypeJSONLines)
	w := httptest.NewRecorder()
	start := time.Now()
	svc.HandleIngest(w, req)
	if w.Code != 429 {
		t.Fatalf("status %d, want 429", w.Code)
	}
	if e := time.Since(start); e < cfg.blockTimeout {
		t.Fatalf("429 before the %v deadline (%v)", cfg.blockTimeout, e)
	}
	var resp struct {
		Accepted int    `json:"accepted"`
		Error    string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted >= 100 || resp.Error == "" {
		t.Fatalf("response %+v", resp)
	}
	close(stall)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryFrames: the binary framing round-trips through the handler,
// and a torn frame rejects the batch with 400.
func TestBinaryFrames(t *testing.T) {
	stall := make(chan struct{})
	close(stall) // no stall
	svc, err := NewService(tinyConfig(stall))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	frames := EncodeBinary(nil, burst(50))
	req := httptest.NewRequest("POST", "/ingest", bytes.NewReader(frames))
	req.Header.Set("Content-Type", ContentTypeBinary)
	w := httptest.NewRecorder()
	svc.HandleIngest(w, req)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp ingestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 50 {
		t.Fatalf("accepted %d of 50", resp.Accepted)
	}

	torn := frames[:len(frames)-3]
	req = httptest.NewRequest("POST", "/ingest", bytes.NewReader(torn))
	req.Header.Set("Content-Type", ContentTypeBinary)
	w = httptest.NewRecorder()
	svc.HandleIngest(w, req)
	if w.Code != 400 {
		t.Fatalf("torn frame: status %d, want 400", w.Code)
	}
	if st := svc.Stats(); st.BadRecords == 0 {
		t.Fatal("torn frame not counted")
	}
}

// TestConcurrentAcceptRacingClose: Accept calls racing a concurrent Close
// or Abort must return promptly with nil, ErrClosed or ErrBackpressure —
// never hang, never panic.
func TestConcurrentAcceptRacingClose(t *testing.T) {
	for _, tc := range []struct {
		name  string
		abort bool
	}{
		{"block-close", false},
		{"block-abort", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stall := make(chan struct{})
			close(stall)
			svc, err := NewService(tinyConfig(stall))
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			start := make(chan struct{})
			fail := make(chan error, 64)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for i := 0; i < 30; i++ {
						_, err := svc.Accept(burst(20))
						if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrBackpressure) {
							fail <- err
						}
					}
				}()
			}
			close(start)
			time.Sleep(time.Millisecond)
			if tc.abort {
				svc.Abort()
			} else if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(20 * time.Second):
				t.Fatal("Accept goroutines hung racing shutdown")
			}
			close(fail)
			for err := range fail {
				t.Fatalf("unexpected Accept error: %v", err)
			}
		})
	}
}

// TestStatsConsistentUnderLoad: Stats() snapshots taken while a producer
// is feeding must be monotone (counters never go backwards), and once the
// feed stops and flushes, every fed record is accounted for as accepted or
// rejected.
func TestStatsConsistentUnderLoad(t *testing.T) {
	stall := make(chan struct{})
	close(stall)
	svc, err := NewService(tinyConfig(stall))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var fed atomic.Int64
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
			recs := burst(20)
			for j := range recs {
				recs[j].Time = base.Add(time.Duration(i*20+j) * time.Second)
			}
			n, err := svc.Accept(recs)
			fed.Add(int64(n))
			if err != nil {
				return
			}
		}
	}()
	var last Stats
	for k := 0; k < 300; k++ {
		st := svc.Stats()
		if st.Accepted < last.Accepted || st.Rejected < last.Rejected ||
			st.BadRecords < last.BadRecords {
			t.Fatalf("stats went backwards: %+v after %+v", st, last)
		}
		last = st
	}
	close(stop)
	wg.Wait()
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if got := st.Accepted + st.Rejected; got != fed.Load() {
		t.Fatalf("accepted %d + rejected %d = %d, fed %d records",
			st.Accepted, st.Rejected, got, fed.Load())
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJSONLinesSkipsBadLines: malformed JSON lines are counted and
// skipped; the good records still flow.
func TestJSONLinesSkipsBadLines(t *testing.T) {
	stall := make(chan struct{})
	close(stall)
	svc, err := NewService(tinyConfig(stall))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var body bytes.Buffer
	if err := EncodeJSONLines(&body, burst(10)); err != nil {
		t.Fatal(err)
	}
	body.WriteString("{not json}\n")
	body.WriteString(`{"time":"bogus","taxi":"X","lat":1,"lon":103,"speed":1,"state":"FREE"}` + "\n")
	req := httptest.NewRequest("POST", "/ingest", &body)
	w := httptest.NewRecorder()
	svc.HandleIngest(w, req)
	if w.Code != 200 {
		t.Fatalf("status %d", w.Code)
	}
	var resp ingestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 10 || resp.Bad != 2 {
		t.Fatalf("accepted %d bad %d, want 10/2", resp.Accepted, resp.Bad)
	}
}
