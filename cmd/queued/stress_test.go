package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"taxiqueue/internal/obs"
)

// TestServeRaceStress hammers every read endpoint while a writer feeds the
// live service and closes slots, asserting the RCU contract end to end:
// every response parses, epochs and the finality watermark only move
// forward, and two reads that observe the same snapshot pointer get
// byte-identical bodies (no torn or half-published state). Run under
// -race via scripts/check.sh, this is the memory-ordering proof for the
// lock-free read path.
func TestServeRaceStress(t *testing.T) {
	env := newServeEnv(t, false)
	fc, err := newForecastLearner(env.srv.result(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if err := fc.ObserveResult(0, env.srv.result()); err != nil {
		t.Fatal(err)
	}
	env.srv.fc = fc
	mux := http.NewServeMux()
	registerServe(mux, env.srv)
	registerForecast(mux, &forecastServer{fc: fc})
	mux.HandleFunc("/recommend", env.srv.handleRecommend)
	registerOps(mux, env.srv, env.metrics, false)

	done := make(chan struct{})
	var wg sync.WaitGroup

	// Profile writer: keep folding fresh days into the learner while the
	// forecast/recommend readers race it — the RCU table republish must be
	// safe against concurrent lock-free loads.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for day := 1; ; day++ {
			select {
			case <-done:
				return
			default:
			}
			if err := fc.ObserveResult(day, env.srv.result()); err != nil {
				t.Errorf("observe day %d: %v", day, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Writer: replay the day in batches, nudging the watermark forward with
	// periodic partial flushes, then a full flush at the end of the feed.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < len(env.day); i += 250 {
			n := len(env.day) - i
			if n > 250 {
				n = 250
			}
			if _, err := env.svc.Accept(env.day[i : i+n]); err != nil {
				t.Errorf("accept: %v", err)
				return
			}
			if i%2000 == 0 {
				if err := env.svc.FlushUntil(env.day[i].Time); err != nil {
					t.Errorf("flush until: %v", err)
					return
				}
			}
		}
		if err := env.svc.Flush(); err != nil {
			t.Errorf("flush: %v", err)
		}
	}()

	get := func(url string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
		return w
	}

	// Readers: sweep every endpoint until the writer finishes, checking
	// same-snapshot reads for byte identity as they go.
	spotURLs := env.slotURLs("/spots")
	ctxURLs := env.slotURLs("/context")
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				su, cu := spotURLs[(i*7+r)%len(spotURLs)], ctxURLs[(i*5+r)%len(ctxURLs)]
				snap := env.svc.Snapshot()
				w1, w2 := get(su), get(su)
				if w1.Code != 200 || w2.Code != 200 {
					t.Errorf("spots status %d/%d", w1.Code, w2.Code)
					return
				}
				if env.svc.Snapshot() == snap && !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
					t.Errorf("same snapshot, different /spots bodies:\n%s\n%s", w1.Body.String(), w2.Body.String())
					return
				}
				var spots []spotJSON
				if err := json.Unmarshal(w1.Body.Bytes(), &spots); err != nil {
					t.Errorf("spots: %v", err)
					return
				}
				if len(spots) != len(env.srv.result().Spots) {
					t.Errorf("spots len %d", len(spots))
					return
				}
				if w := get(cu); w.Code != 200 {
					t.Errorf("context status %d", w.Code)
					return
				}
				if w := get("/estimate"); w.Code != 200 {
					t.Errorf("estimate status %d", w.Code)
					return
				}
				// The forecast + ETA-aware recommend read path rides the
				// same lock-free contract: one table load per request,
				// racing the profile writer's republishes.
				spot := (i + r) % len(env.srv.result().Spots)
				at := env.grid.Start.Add(time.Duration(i%96) * 30 * time.Minute)
				fu := fmt.Sprintf("/forecast?spot=%d&at=%s", spot, at.UTC().Format(time.RFC3339))
				if w := get(fu); w.Code != 200 {
					t.Errorf("forecast status %d: %s", w.Code, w.Body.String())
					return
				}
				var fj forecastJSON
				if err := json.Unmarshal(get(fu).Body.Bytes(), &fj); err != nil {
					t.Errorf("forecast: %v", err)
					return
				}
				if w := get("/recommend?for=commuter&lat=1.30&lon=103.83"); w.Code != 200 {
					t.Errorf("recommend status %d: %s", w.Code, w.Body.String())
					return
				}
				if i%16 == r {
					if w := get("/healthz"); w.Code != 200 {
						t.Errorf("healthz status %d", w.Code)
						return
					}
				}
			}
		}(r)
	}

	// Monitor: the published snapshot must only ever move forward.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastEpoch uint64
		lastFinal := -1
		for {
			snap := env.svc.Snapshot()
			if snap.Epoch < lastEpoch || snap.FinalBelow < lastFinal {
				t.Errorf("snapshot went backwards: epoch %d -> %d, final %d -> %d",
					lastEpoch, snap.Epoch, lastFinal, snap.FinalBelow)
				return
			}
			lastEpoch, lastFinal = snap.Epoch, snap.FinalBelow
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	wg.Wait()

	// After the final flush the whole grid is final.
	if got := env.svc.Snapshot().FinalBelow; got != env.grid.Slots*benchDays {
		t.Fatalf("final watermark %d, want %d", got, env.grid.Slots*benchDays)
	}
}
