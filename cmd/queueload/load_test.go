package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseMix(t *testing.T) {
	cases := []struct {
		name    string
		mix     string
		entries int    // expected len(mix) when wantErr is empty
		wantErr string // substring the error must contain; "" = success
	}{
		{"full default", "spots=4,context=2,recommend=1,estimate=1", 4, ""},
		{"bare names default to weight 1", "spots,estimate", 2, ""},
		{"range-scan vocabulary", "history=4,heatmap=2,transitions=1", 3, ""},
		{"forecast vocabulary", "forecast=3,recommend=1", 2, ""},
		{"wide analytics vocabulary", "wide=2,spots=1", 2, ""},
		{"zero-weight entry dropped", "spots=4,context=0", 1, ""},
		{"unknown endpoint", "spots=4,teapots=1", 0, "unknown endpoint"},
		{"unparsable weight", "spots=x", 0, "bad weight"},
		{"negative weight", "spots=-3", 0, "negative weight"},
		{"negative among valid", "spots=4,context=-1", 0, "negative weight"},
		{"all weights zero", "spots=0,context=0", 0, "zero total weight"},
		{"total weight overflows", "spots=9223372036854775807,context=1", 0, "overflows"},
		{"empty string", "", 0, "empty mix"},
		{"only commas", " , ,", 0, "empty mix"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mix, err := parseMix(tc.mix)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("parseMix(%q) err = %v, want %q", tc.mix, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseMix(%q): %v", tc.mix, err)
			}
			if len(mix) != tc.entries {
				t.Fatalf("parseMix(%q) = %+v, want %d entries", tc.mix, mix, tc.entries)
			}
		})
	}

	// Spot-check weights survive into the entries.
	mix, err := parseMix("spots=4,context=2")
	if err != nil || mix[0].name != "spots" || mix[0].weight != 4 || mix[1].weight != 2 {
		t.Fatalf("mix = %+v, %v", mix, err)
	}
}

// TestRunForecastMix drives a forecast-heavy mix against a stub: spot
// indexes must come from the probed /spots count and `at`, when sent,
// must parse as RFC3339.
func TestRunForecastMix(t *testing.T) {
	var hits, badReq atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/forecast", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		q := r.URL.Query()
		if s := q.Get("spot"); s != "0" && s != "1" {
			badReq.Add(1)
			http.Error(w, "bad spot", http.StatusBadRequest)
			return
		}
		if at := q.Get("at"); at != "" {
			if _, err := time.Parse(time.RFC3339, at); err != nil {
				badReq.Add(1)
				http.Error(w, "bad at", http.StatusBadRequest)
				return
			}
		}
		w.Write([]byte("{}\n"))
	})
	mux.HandleFunc("/spots", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`[{},{}]`))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("ok")) })
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cfg := defaultConfig()
	cfg.URL = ts.URL
	cfg.Duration = 200 * time.Millisecond
	cfg.Clients = 2
	cfg.Mix = "forecast"
	cfg.Start = "2026-01-05T00:00:00Z"
	sum, err := run(cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range sum.Endpoints {
		if ep.Errors != 0 {
			t.Fatalf("%s: %d errors", ep.Name, ep.Errors)
		}
	}
	if hits.Load() == 0 {
		t.Fatalf("/forecast never hit: %+v", sum.Endpoints)
	}
	if badReq.Load() != 0 {
		t.Fatalf("%d malformed forecast requests", badReq.Load())
	}
}

// TestRunHistoryMix drives the range-scan mix against a stub exposing the
// history endpoints: spot indexes must come from the probed /spots count
// and every request must land.
func TestRunHistoryMix(t *testing.T) {
	var hits [3]atomic.Int64 // history, heatmap, transitions
	var badSpot atomic.Int64
	mux := http.NewServeMux()
	spotted := func(i int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			hits[i].Add(1)
			if s := r.URL.Query().Get("spot"); s != "2" && s != "1" && s != "0" {
				badSpot.Add(1)
				http.Error(w, "bad spot", http.StatusBadRequest)
				return
			}
			w.Write([]byte("{}\n"))
		}
	}
	mux.HandleFunc("/history", spotted(0))
	mux.HandleFunc("/transitions", spotted(2))
	mux.HandleFunc("/heatmap", func(w http.ResponseWriter, _ *http.Request) {
		hits[1].Add(1)
		w.Write([]byte("{}\n"))
	})
	// The spot-count probe reads this: three spots.
	mux.HandleFunc("/spots", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`[{},{},{}]`))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("ok")) })
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cfg := defaultConfig()
	cfg.URL = ts.URL
	cfg.Duration = 200 * time.Millisecond
	cfg.Clients = 2
	cfg.Mix = "history=4,heatmap=2,transitions=1"
	cfg.Start = "2026-01-05T00:00:00Z"
	sum, err := run(cfg, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range sum.Endpoints {
		if ep.Errors != 0 {
			t.Fatalf("%s: %d errors", ep.Name, ep.Errors)
		}
	}
	for i := range hits {
		if hits[i].Load() == 0 {
			t.Fatalf("endpoint %d never hit: %+v", i, sum.Endpoints)
		}
	}
	if badSpot.Load() != 0 {
		t.Fatalf("%d requests drew a spot outside the probed count", badSpot.Load())
	}
}

// TestRunWideMix drives the wide-analytics mix against a stub: every
// request must be either a multi-day /history span or a range-form
// /heatmap (from/to present, to after from, at least one day wide), and
// the summary must report wide latency percentiles.
func TestRunWideMix(t *testing.T) {
	var history, heatmap, malformed atomic.Int64
	checkRange := func(r *http.Request) bool {
		q := r.URL.Query()
		from, errF := time.Parse(time.RFC3339, q.Get("from"))
		to, errT := time.Parse(time.RFC3339, q.Get("to"))
		return errF == nil && errT == nil && to.Sub(from) >= 24*time.Hour
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/history", func(w http.ResponseWriter, r *http.Request) {
		history.Add(1)
		if s := r.URL.Query().Get("spot"); s != "0" && s != "1" {
			malformed.Add(1)
			http.Error(w, "bad spot", http.StatusBadRequest)
			return
		}
		if !checkRange(r) {
			malformed.Add(1)
			http.Error(w, "not a wide span", http.StatusBadRequest)
			return
		}
		w.Write([]byte("{}\n"))
	})
	mux.HandleFunc("/heatmap", func(w http.ResponseWriter, r *http.Request) {
		heatmap.Add(1)
		if !checkRange(r) {
			malformed.Add(1)
			http.Error(w, "not a range aggregate", http.StatusBadRequest)
			return
		}
		w.Write([]byte("{}\n"))
	})
	mux.HandleFunc("/spots", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`[{},{}]`))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("ok")) })
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cfg := defaultConfig()
	cfg.URL = ts.URL
	cfg.Duration = 200 * time.Millisecond
	cfg.Clients = 2
	cfg.Mix = "wide"
	cfg.Start = "2026-01-05T00:00:00Z"
	sum, err := run(cfg, rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatal(err)
	}
	if history.Load() == 0 || heatmap.Load() == 0 {
		t.Fatalf("wide mix skewed: %d history, %d heatmap", history.Load(), heatmap.Load())
	}
	if malformed.Load() != 0 {
		t.Fatalf("%d malformed wide requests", malformed.Load())
	}
	var wide *endpointStat
	for i := range sum.Endpoints {
		if sum.Endpoints[i].Name == "wide" {
			wide = &sum.Endpoints[i]
		}
	}
	if wide == nil || wide.Errors != 0 || wide.Requests == 0 {
		t.Fatalf("wide endpoint stat missing or errored: %+v", sum.Endpoints)
	}
	if wide.P50ms > wide.P90ms || wide.P90ms > wide.P99ms || wide.P99ms > wide.MaxMs {
		t.Fatalf("wide percentiles out of order: %+v", *wide)
	}
}

func TestPercentile(t *testing.T) {
	lats := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(lats, 0.5); p != 5 {
		t.Fatalf("p50 = %d", p)
	}
	if p := percentile(lats, 1.0); p != 10 {
		t.Fatalf("max = %d", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Fatalf("empty percentile = %d", p)
	}
}

// TestRunClosedLoop drives the whole harness against a stub queued: every
// endpoint of the mix must be hit, latencies recorded, and the summary
// consistent.
func TestRunClosedLoop(t *testing.T) {
	var hits [4]atomic.Int64 // spots, context, recommend, estimate
	mux := http.NewServeMux()
	stub := func(i int) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			hits[i].Add(1)
			w.Write([]byte("[]\n"))
		}
	}
	mux.HandleFunc("/spots", stub(0))
	mux.HandleFunc("/context", stub(1))
	mux.HandleFunc("/recommend", stub(2))
	mux.HandleFunc("/estimate", stub(3))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("ok")) })
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cfg := defaultConfig()
	cfg.URL = ts.URL
	cfg.Duration = 300 * time.Millisecond
	cfg.Clients = 3
	cfg.Start = "2026-01-05T00:00:00Z"
	sum, err := run(cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Mode != "closed" || sum.Clients != 3 {
		t.Fatalf("summary header = %+v", sum)
	}
	total := 0
	for _, ep := range sum.Endpoints {
		if ep.Errors != 0 {
			t.Fatalf("%s: %d errors", ep.Name, ep.Errors)
		}
		if ep.Requests > 0 && ep.MaxMs < ep.P50ms {
			t.Fatalf("%s: max %.3fms < p50 %.3fms", ep.Name, ep.MaxMs, ep.P50ms)
		}
		total += ep.Requests
	}
	var served int64
	for i := range hits {
		if hits[i].Load() == 0 {
			t.Fatalf("endpoint %d never hit: %+v", i, sum.Endpoints)
		}
		served += hits[i].Load()
	}
	// run() probes /spots once for the spot count before the load starts.
	if int64(total)+1 != served {
		t.Fatalf("summary counts %d requests, server saw %d (want summary+1 probe)", total, served)
	}
	if sum.TotalRPS <= 0 {
		t.Fatalf("total rps %f", sum.TotalRPS)
	}
}

// TestRunOpenLoop checks the rate-paced mode stays near its target on a
// fast stub.
func TestRunOpenLoop(t *testing.T) {
	mux := http.NewServeMux()
	ok := func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("[]\n")) }
	for _, p := range []string{"/spots", "/context", "/recommend", "/estimate", "/healthz"} {
		mux.HandleFunc(p, ok)
	}
	ts := httptest.NewServer(mux)
	defer ts.Close()

	cfg := defaultConfig()
	cfg.URL = ts.URL
	cfg.Duration = 500 * time.Millisecond
	cfg.Rate = 200
	sum, err := run(cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Mode != "open" || sum.RateTarget != 200 {
		t.Fatalf("summary header = %+v", sum)
	}
	total := 0
	for _, ep := range sum.Endpoints {
		total += ep.Requests
	}
	// ~100 arrivals scheduled; allow generous slack for a loaded CI box.
	if total < 30 || total > 150 {
		t.Fatalf("open loop sent %d requests at rate 200 over 0.5s", total)
	}
}

func TestRunBadTarget(t *testing.T) {
	cfg := defaultConfig()
	cfg.URL = "http://127.0.0.1:1" // nothing listens here
	cfg.Duration = 50 * time.Millisecond
	if _, err := run(cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("unreachable target did not error")
	}
}
