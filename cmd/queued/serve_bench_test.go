package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/clean"
	"taxiqueue/internal/cluster"
	"taxiqueue/internal/core"
	"taxiqueue/internal/ingest"
	"taxiqueue/internal/mdt"
	"taxiqueue/internal/obs"
	"taxiqueue/internal/sim"
)

// lockedServer reproduces the pre-snapshot read path — an RWMutex around
// the batch state, per-request landmark lookups, per-request JSON
// encoding, and labels pulled through the aggregator's mutex
// (Service.ContextLocked) — so the benchmarks measure the cached RCU path
// against the exact behavior it replaced, and the equivalence tests can
// assert the two paths emit byte-identical bodies.
type lockedServer struct {
	mu   sync.RWMutex
	city *citymap.Map
	res  *core.Result
	grid core.SlotGrid
	svc  *ingest.Service // nil = batch labels from res
}

func (s *lockedServer) at(r *http.Request) (time.Time, bool) {
	at := s.grid.Start.Add(12 * time.Hour)
	if v := r.URL.Query().Get("at"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			return at, false
		}
		at = t
	}
	return at, true
}

func (s *lockedServer) handleSpots(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	res, grid, city, svc := s.res, s.grid, s.city, s.svc
	s.mu.RUnlock()
	at, ok := s.at(r)
	if !ok {
		http.Error(w, "bad 'at' timestamp", http.StatusBadRequest)
		return
	}
	slot := grid.Index(at)
	out := make([]spotJSON, 0, len(res.Spots))
	for i := range res.Spots {
		sa := &res.Spots[i]
		label := core.Unidentified
		if svc != nil {
			if _, lv, ok := svc.ContextLocked(i, slot); ok {
				label = lv
			}
		} else {
			label = sa.LabelAt(grid, at)
		}
		sj := spotJSON{
			Lat: sa.Spot.Pos.Lat, Lon: sa.Spot.Pos.Lon,
			Zone: sa.Spot.Zone.String(), Pickups: sa.Spot.PickupCount,
			Context: label.String(),
		}
		if lm, d, ok := city.NearestLandmark(sa.Spot.Pos); ok && d < 50 {
			sj.Landmark = lm.Name
		}
		out = append(out, sj)
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		log.Printf("encode: %v", err)
	}
}

func (s *lockedServer) handleContext(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	res, grid, svc := s.res, s.grid, s.svc
	s.mu.RUnlock()
	at, ok := s.at(r)
	if !ok {
		http.Error(w, "bad 'at' timestamp", http.StatusBadRequest)
		return
	}
	slot := grid.Index(at)
	out := make([]contextJSON, len(res.Spots))
	for i := range res.Spots {
		label, feats, final := core.Unidentified, core.SlotFeatures{}, false
		if svc != nil {
			if f, lv, ok := svc.ContextLocked(i, slot); ok {
				feats, label, final = f, lv, true
			}
		} else if slot >= 0 && slot < grid.Slots {
			sa := &res.Spots[i]
			if slot < len(sa.Labels) {
				label = sa.Labels[slot]
			}
			if slot < len(sa.Features) {
				feats = sa.Features[slot]
			}
			final = true
		}
		out[i] = cellJSON(i, label, feats, final)
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		log.Printf("encode: %v", err)
	}
}

// benchDays widens the live grid past the simulated day so the feeder's
// time-shifted laps keep closing fresh slots — every lap advances the
// watermark, so snapshots (and cache epochs) keep churning while the
// benchmark reads.
const benchDays = 4

// serveEnv is the shared read-path fixture: one simulated day analyzed in
// batch, a live ingest service bootstrapped from it, the cached RCU server
// and the locked baseline over the same state, and an optional background
// feeder that replays the day with a +24h shift per lap.
type serveEnv struct {
	srv    *server
	locked *lockedServer
	svc    *ingest.Service
	day    []mdt.Record
	grid   core.SlotGrid // batch (single-day) grid
	stop   chan struct{}
	wg     sync.WaitGroup
	once   sync.Once
}

func newServeEnv(tb testing.TB, feed bool) *serveEnv {
	tb.Helper()
	out := sim.Run(sim.Config{Seed: 42, City: citymap.Generate(42, 0.05)})
	cleaned, _ := clean.Clean(out.Records, clean.Config{ValidFrame: citymap.Island})
	cfg := core.DefaultEngineConfig()
	cfg.Detector.Cluster = cluster.Params{EpsMeters: 15, MinPoints: 25}
	cfg.Grid = core.DaySlots(out.Config.Start)
	engine, err := core.NewEngine(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := engine.Analyze(cleaned)
	if err != nil {
		tb.Fatal(err)
	}
	scfg := liveStreamConfig(res)
	scfg.Grid.Slots *= benchDays
	svc, err := ingest.NewService(ingest.Config{
		Stream: scfg,
		Clean:  clean.Config{ValidFrame: citymap.Island},
		Shards: 2,
	})
	if err != nil {
		tb.Fatal(err)
	}
	srv := newServer(svc.Registry())
	srv.view.Store(newBatchView(out.Config.City, res))
	srv.svc = svc
	env := &serveEnv{
		srv:    srv,
		locked: &lockedServer{city: out.Config.City, res: res, grid: cfg.Grid, svc: svc},
		svc:    svc,
		day:    cleaned,
		grid:   cfg.Grid,
		stop:   make(chan struct{}),
	}
	if feed {
		env.startFeeder()
	}
	tb.Cleanup(env.close)
	return env
}

// startFeeder replays the cleaned day through Accept in wire-sized
// batches, shifting every lap by +24h so per-taxi time order is preserved
// and the stream engine keeps closing new slots.
func (e *serveEnv) startFeeder() {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		const batchSize = 500
		batch := make([]mdt.Record, batchSize)
		for shift := time.Duration(0); ; shift += 24 * time.Hour {
			for i := 0; i < len(e.day); i += batchSize {
				select {
				case <-e.stop:
					return
				default:
				}
				n := len(e.day) - i
				if n > batchSize {
					n = batchSize
				}
				b := batch[:n]
				copy(b, e.day[i:i+n])
				if shift != 0 {
					for j := range b {
						b[j].Time = b[j].Time.Add(shift)
					}
				}
				if _, err := e.svc.Accept(b); err != nil {
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()
}

func (e *serveEnv) close() {
	e.once.Do(func() {
		close(e.stop)
		e.wg.Wait()
		_ = e.svc.Close()
	})
}

// feedDay pushes the whole day synchronously and flushes, making every
// slot final.
func (e *serveEnv) feedDay(tb testing.TB) {
	tb.Helper()
	for i := 0; i < len(e.day); i += 500 {
		n := len(e.day) - i
		if n > 500 {
			n = 500
		}
		if _, err := e.svc.Accept(e.day[i : i+n]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := e.svc.Flush(); err != nil {
		tb.Fatal(err)
	}
}

// slotURLs returns one query URL per day-grid slot midpoint plus one
// out-of-grid time, so benchmarks and identity checks sweep every cache
// bucket.
func (e *serveEnv) slotURLs(path string) []string {
	urls := make([]string, 0, e.grid.Slots+1)
	for j := 0; j < e.grid.Slots; j++ {
		at := e.grid.Start.Add(time.Duration(j)*e.grid.SlotLen + e.grid.SlotLen/2)
		urls = append(urls, path+"?at="+at.UTC().Format(time.RFC3339))
	}
	urls = append(urls, path+"?at="+e.grid.Start.Add(-time.Hour).UTC().Format(time.RFC3339))
	return urls
}

// TestCachedMatchesLockedBaseline: after a full final feed, the cached
// snapshot handlers and the locked per-request baseline must produce
// byte-identical bodies for every slot — twice, so both the render (miss)
// and the cached (hit) path are compared.
func TestCachedMatchesLockedBaseline(t *testing.T) {
	env := newServeEnv(t, false)
	env.feedDay(t)
	cases := []struct {
		name           string
		cached, locked http.HandlerFunc
	}{
		{"spots", env.srv.handleSpots, env.locked.handleSpots},
		{"context", env.srv.handleContext, env.locked.handleContext},
	}
	for _, tc := range cases {
		for pass := 0; pass < 2; pass++ {
			for _, url := range env.slotURLs("/" + tc.name) {
				wc := httptest.NewRecorder()
				tc.cached(wc, httptest.NewRequest("GET", url, nil))
				wl := httptest.NewRecorder()
				tc.locked(wl, httptest.NewRequest("GET", url, nil))
				if wc.Code != 200 || wl.Code != 200 {
					t.Fatalf("%s pass %d %s: status cached=%d locked=%d", tc.name, pass, url, wc.Code, wl.Code)
				}
				if !bytes.Equal(wc.Body.Bytes(), wl.Body.Bytes()) {
					t.Fatalf("%s pass %d %s: cached body differs from locked baseline\ncached: %s\nlocked: %s",
						tc.name, pass, url, wc.Body.String(), wl.Body.String())
				}
			}
		}
	}
}

// TestSnapshotMatchesLocked: every (spot, slot) cell of the published
// snapshot must agree with the mutex-guarded reference path.
func TestSnapshotMatchesLocked(t *testing.T) {
	env := newServeEnv(t, false)
	env.feedDay(t)
	snap := env.svc.Snapshot()
	res := env.srv.result()
	for i := range res.Spots {
		for j := 0; j < env.grid.Slots; j++ {
			sf, sl, sok := snap.Context(i, j)
			lf, ll, lok := env.svc.ContextLocked(i, j)
			if sok != lok || sl != ll || sf != lf {
				t.Fatalf("cell (%d,%d): snapshot (%v,%v,%v) != locked (%v,%v,%v)",
					i, j, sf, sl, sok, lf, ll, lok)
			}
		}
	}
}

// discardWriter is a minimal ResponseWriter so the benchmarks measure the
// handler, not httptest.NewRecorder's buffer management.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// benchGet drives one handler with a rotating URL set; requests are
// prebuilt so the measurement is the handler, not request construction.
func benchGet(b *testing.B, h http.HandlerFunc, urls []string) {
	reqs := make([]*http.Request, len(urls))
	for i, u := range urls {
		reqs[i] = httptest.NewRequest("GET", u, nil)
	}
	w := &discardWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.code, w.n = 200, 0
		h(w, reqs[i%len(reqs)])
		if w.code != 200 || w.n == 0 {
			b.Fatalf("status %d, %d body bytes", w.code, w.n)
		}
	}
}

// The ServeSpots / ServeContext pairs measure the tentpole: the cached
// RCU read path against the locked per-request baseline, both racing the
// same live feeder that keeps closing slots and churning snapshot epochs.

func BenchmarkServeSpotsCached(b *testing.B) {
	env := newServeEnv(b, true)
	benchGet(b, env.srv.handleSpots, env.slotURLs("/spots"))
}

func BenchmarkServeSpotsLocked(b *testing.B) {
	env := newServeEnv(b, true)
	benchGet(b, env.locked.handleSpots, env.slotURLs("/spots"))
}

func BenchmarkServeContextCached(b *testing.B) {
	env := newServeEnv(b, true)
	benchGet(b, env.srv.handleContext, env.slotURLs("/context"))
}

func BenchmarkServeContextLocked(b *testing.B) {
	env := newServeEnv(b, true)
	benchGet(b, env.locked.handleContext, env.slotURLs("/context"))
}

// withForecast wires a seeded forecast learner onto the env's server so
// /recommend ranks ETA-aware and /forecast answers from real profiles.
func (e *serveEnv) withForecast(tb testing.TB) *forecastServer {
	tb.Helper()
	fc, err := newForecastLearner(e.srv.result(), obs.NewRegistry())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { fc.Close() })
	if err := fc.ObserveResult(0, e.srv.result()); err != nil {
		tb.Fatal(err)
	}
	e.srv.fc = fc
	return &forecastServer{fc: fc}
}

// BenchmarkServeRecommend measures the ETA-aware ranking end to end —
// parse, one view + one table load, per-spot forecast at arrival, sort,
// encode — racing the live feeder like the other serve benchmarks.
func BenchmarkServeRecommend(b *testing.B) {
	env := newServeEnv(b, true)
	env.withForecast(b)
	benchGet(b, env.srv.handleRecommend, []string{
		"/recommend?for=driver&lat=1.30&lon=103.83",
		"/recommend?for=commuter&lat=1.29&lon=103.82",
		"/recommend?for=driver&lat=1.28&lon=103.85",
	})
}

// BenchmarkServeForecast measures one profile evaluation through the
// HTTP handler (parse + table load + evaluate + encode).
func BenchmarkServeForecast(b *testing.B) {
	env := newServeEnv(b, true)
	fs := env.withForecast(b)
	nspots := len(env.srv.result().Spots)
	urls := make([]string, 0, 16)
	for i := 0; i < 16; i++ {
		at := env.grid.Start.Add(time.Duration(i*3) * time.Hour)
		urls = append(urls, fmt.Sprintf("/forecast?spot=%d&at=%s", i%nspots, at.UTC().Format(time.RFC3339)))
	}
	benchGet(b, fs.handleForecast, urls)
}

// BenchmarkServeEstimate* compare the version-cached /estimate body with
// re-merging every shard's provisional accumulators per request.

func BenchmarkServeEstimateCached(b *testing.B) {
	env := newServeEnv(b, true)
	benchGet(b, env.srv.handleEstimate, []string{"/estimate"})
}

func BenchmarkServeEstimateDirect(b *testing.B) {
	env := newServeEnv(b, true)
	direct := func(w http.ResponseWriter, _ *http.Request) {
		est := env.svc.Estimate()
		out := estimateJSON{
			Version: est.Version, AsOf: est.AsOf, Slot: est.Slot,
			Contexts: make([]string, len(est.Labels)),
			Live:     est.OK,
		}
		for i, lb := range est.Labels {
			out.Contexts[i] = lb.String()
		}
		writeJSON(w, encodeJSON(out))
	}
	benchGet(b, direct, []string{"/estimate"})
}
