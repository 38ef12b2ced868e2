// Command queued is the deployment-style backend of §7.1: it periodically
// recomputes queue spots and contexts from fresh (simulated) MDT data and
// serves them over a JSON API, alongside the vehicle-monitor endpoints.
//
//	GET /                       web frontend (canvas map of spots + contexts)
//	GET /spots                  all detected queue spots with current context
//	GET /spots?at=RFC3339       contexts at a specific time
//	GET /spots?live=1           also the spots discovered online (lifecycle
//	                            "state" field); live mode with -live-spots
//	                            only, elsewhere the same body as /spots
//	GET /context[?at=..]        per-spot context + §5.2 features for one slot
//	GET /recommend?for=driver&lat=..&lon=..[&at=..]  ranked queue spots (§9),
//	                            ETA-aware: scored by expected state at arrival
//	GET /forecast?spot=N[&at=RFC3339]  expected label/queue length/wait at a
//	                            (future) instant, from learned slot profiles
//	GET /monitors ...           the vehicle monitor service (see internal/monitor)
//	GET /metrics                Prometheus text metrics (ingest, serve caches, heap)
//	GET /healthz                readiness: batch loaded, shards alive, WAL writable
//	GET /debug/pprof/*          runtime profiling, when started with -pprof
//
// With -history DIR the columnar slot-context store (internal/history)
// records every finalized cell — appended live on each watermark advance,
// or backfilled from the batch pass — and three analytics endpoints serve
// its lock-free index:
//
//	GET /history?spot=N[&from=..&to=..]  decoded per-slot context series
//	GET /heatmap[?t=RFC3339]             tiled city intensity at one recorded slot
//	GET /heatmap?from=..&to=..           city-wide aggregate over a range, served
//	                                     from block summaries without decoding
//	GET /transitions?spot=N              day-over-day label transition matrix
//
// Batch and live mode share one read path. Both tiers produce the same
// (spot, slot) cell, published as an immutable *ingest.Snapshot behind an
// atomic pointer: the batch day as one snapshot with every slot final,
// the live ingest aggregator as a fresh snapshot per watermark advance.
// The same /spots and /context handlers serve either; only the server's
// wiring decides which snapshot they read. The hot endpoints serve
// pre-encoded bodies from a per-epoch cache (see cache.go) — a request
// costs one pointer load and one cache lookup, and invalidation is pointer
// identity, never a timer.
//
// With -live the batch run only bootstraps the spot positions and
// thresholds; contexts are then served from records POSTed to /ingest
// (see internal/ingest):
//
//	POST /ingest                JSON-lines or binary MDT record batches
//	POST /ingest/flush          finalize every slot (end of feed)
//	GET  /ingest/stats          per-shard accepted/rejected/lag
//	GET  /estimate              provisional contexts for the still-open slot
//
// With -wal DIR each shard group-commits its log, one fsync per 256
// records under load, and rotates its files at 4 MiB.
//
// Usage:
//
//	queued -addr :8080 -scale 0.25 -refresh 0   # refresh 0 = analyze once
//	queued -addr :8080 -live -shards 4 -wal /tmp/tq-wal
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/clean"
	"taxiqueue/internal/core"
	"taxiqueue/internal/forecast"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/history"
	"taxiqueue/internal/ingest"
	"taxiqueue/internal/monitor"
	"taxiqueue/internal/obs"
	"taxiqueue/internal/recommend"
)

// spotJSON is the wire format for one detected spot. The last two fields
// only appear on live-discovered spots (/spots?live=1): batch spots omit
// them, so the plain /spots body is byte-identical with or without live
// discovery running.
type spotJSON struct {
	Lat      float64 `json:"lat"`
	Lon      float64 `json:"lon"`
	Zone     string  `json:"zone"`
	Pickups  int     `json:"pickups"` // live spots: current window support
	Context  string  `json:"context"`
	Landmark string  `json:"landmark,omitempty"`
	State    string  `json:"state,omitempty"` // lifecycle: emerging|confirmed|decaying
	Live     bool    `json:"live,omitempty"`  // true for online-discovered spots
}

// handleSpots serves /spots from the per-epoch cache: the body for each
// slot is encoded once per published (view, snapshot) pair and then served
// as immutable bytes. A slot the snapshot has not made final serves as
// Unidentified.
//
// With ?live=1 the body additionally carries the online-discovered queue
// spots (Snapshot.Live) after the batch list, each flagged "live": true
// with its lifecycle "state" — the view that sees a pop-up queue hours
// before the next batch pass. Where nothing discovers spots (batch mode,
// or live mode without -live-spots) both bodies are byte-identical.
func (s *server) handleSpots(w http.ResponseWriter, r *http.Request) {
	v, snap, bucket, ok := s.load(w, r)
	if !ok {
		return
	}
	c, live := s.spotsCache, r.URL.Query().Get("live") == "1"
	if live {
		c = s.liveCache
	}
	writeJSON(w, c.get(epoch{v, snap}, bucket, v.buckets(), func() []byte {
		return v.spotsBody(snap, bucket, live)
	}))
}

// handleContext serves the per-spot contexts and features of one slot,
// cached per (view, snapshot, slot).
func (s *server) handleContext(w http.ResponseWriter, r *http.Request) {
	v, snap, bucket, ok := s.load(w, r)
	if !ok {
		return
	}
	writeJSON(w, s.contextCache.get(epoch{v, snap}, bucket, v.buckets(), func() []byte {
		return v.contextBody(snap, bucket)
	}))
}

// registerServe mounts /spots and /context — the same handlers in batch
// and live mode — plus, in live mode, /estimate and the ingestion
// endpoints.
func registerServe(mux *http.ServeMux, s *server) {
	mux.HandleFunc("/spots", s.handleSpots)
	mux.HandleFunc("/context", s.handleContext)
	if s.svc == nil {
		return
	}
	mux.HandleFunc("/estimate", s.handleEstimate)
	mux.HandleFunc("/ingest", s.svc.HandleIngest)
	mux.HandleFunc("/ingest/stats", s.svc.HandleStats)
	mux.HandleFunc("/ingest/flush", s.svc.HandleFlush)
}

// parseCoord parses one coordinate query parameter, rejecting anything a
// distance can't be computed from: strconv syntax errors, NaN/Inf (which
// fmt.Sscan used to accept — NaN > MaxDistance is false, so the radius
// filter passed every spot and NaN scores made the sort comparator
// non-transitive) and out-of-range degrees.
func parseCoord(s string, limit float64) (float64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < -limit || v > limit {
		return 0, false
	}
	return v, true
}

// recommendAt resolves the default evaluation instant: the live feed's
// newest final slot when one is wired in (defaultAt), else the historical
// noon-of-batch-day fallback.
func (s *server) recommendAt(v *batchView) time.Time {
	if s.defaultAt != nil {
		if t, ok := s.defaultAt(); ok {
			return t
		}
	}
	return v.grid.Start.Add(12 * time.Hour)
}

// handleRecommend serves the §9 recommendation feed for drivers (passenger
// queues) and commuters (taxi queues), ranked by the expected state at
// arrival: travel-time ETA from distance, forecast evaluated at at+ETA.
// The ranking depends on the caller's position, so the body is not
// cacheable — but the handler is still lock-free: it reads one published
// view and one published profile table.
func (s *server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	v := s.view.Load()
	if v == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	q := r.URL.Query()
	var aud recommend.Audience
	switch q.Get("for") {
	case "driver":
		aud = recommend.ForDriver
	case "commuter":
		aud = recommend.ForCommuter
	default:
		http.Error(w, "need for=driver|commuter", http.StatusBadRequest)
		return
	}
	lat, ok := parseCoord(q.Get("lat"), 90)
	if !ok {
		http.Error(w, "bad lat", http.StatusBadRequest)
		return
	}
	lon, ok := parseCoord(q.Get("lon"), 180)
	if !ok {
		http.Error(w, "bad lon", http.StatusBadRequest)
		return
	}
	at := s.recommendAt(v)
	if qs := q.Get("at"); qs != "" {
		t, err := time.Parse(time.RFC3339, qs)
		if err != nil {
			http.Error(w, "bad 'at'", http.StatusBadRequest)
			return
		}
		at = t
	}
	var opts recommend.Options
	if s.fc != nil {
		tbl := s.fc.Table() // one load: every spot ranks against the same table
		opts.Forecast = func(spot int, when time.Time) (core.QueueType, float64, time.Duration, bool) {
			f, ok := tbl.Forecast(spot, when)
			if !ok || f.Source == forecast.SourceNone {
				return core.Unidentified, 0, 0, false
			}
			return f.Label, f.QLen, f.Wait, true
		}
	}
	recs := recommend.Recommend(v.result, aud, geo.Point{Lat: lat, Lon: lon}, at, opts)
	type recJSON struct {
		Lat        float64 `json:"lat"`
		Lon        float64 `json:"lon"`
		Context    string  `json:"context"`
		Distance   float64 `json:"distance_m"`
		Score      float64 `json:"score"`
		ETAS       float64 `json:"eta_s"`
		ExpWaitS   float64 `json:"expected_wait_s"`
		Forecasted bool    `json:"forecasted"`
	}
	out := make([]recJSON, 0, len(recs))
	for _, rec := range recs {
		out = append(out, recJSON{
			Lat: rec.Spot.Pos.Lat, Lon: rec.Spot.Pos.Lon,
			Context: rec.Context.String(), Distance: rec.Distance, Score: rec.Score,
			ETAS: rec.ETA.Seconds(), ExpWaitS: rec.ExpectedWait.Seconds(),
			Forecasted: rec.Forecasted,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		log.Printf("encode: %v", err)
	}
}

// shutdown closes the durable state in dependency order — the ingest
// service first (its final flush feeds history and forecast), then the
// history store, then the forecast learner — logging each failure and
// returning the first. svc and hist may be nil (batch mode, no -history).
func shutdown(svc *ingest.Service, hist *history.Store, fc *forecast.Learner) error {
	var first error
	note := func(what string, err error) {
		if err != nil {
			log.Printf("queued: %s close: %v", what, err)
			if first == nil {
				first = err
			}
		}
	}
	if svc != nil {
		log.Printf("queued: draining ingest shards...")
		note("ingest", svc.Close())
	}
	if hist != nil {
		note("history", hist.Close())
	}
	note("forecast", fc.Close())
	return first
}

// HTTP edge limits. A client has readHeaderTimeout to send its request
// headers and idleTimeout between keep-alive requests, and may send at most
// maxHeaderBytes of them. A stop signal waits at most drainTimeout for
// in-flight requests before the durable state closes regardless.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
	drainTimeout      = 5 * time.Second
)

// serve answers HTTP on ln until the server fails or ctx is done (the stop
// signal). Then it stops accepting and drains the in-flight requests (at
// most drainTimeout); only then does closeState run, so no request is cut
// short by the exit and no handler reads a closed store. It returns the
// server's error, nil after a stop.
func serve(ctx context.Context, ln net.Listener, h http.Handler, closeState func()) error {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	var err error
	select {
	case err = <-served:
	case <-ctx.Done():
		log.Printf("queued: stopping: draining HTTP requests...")
		drain, cancel := context.WithTimeout(context.Background(), drainTimeout)
		if derr := srv.Shutdown(drain); derr != nil {
			log.Printf("queued: HTTP drain: %v", derr)
		}
		cancel()
		<-served // http.ErrServerClosed
	}
	closeState()
	return err
}

// refreshLap analyzes day i of a -refresh run (seed+i) and records it as
// day i in the history store, when there is one, and the forecast.
func refreshLap(srv *server, hist *history.Store, fc *forecast.Learner, seed, i int64, scale float64, minPts int) {
	// The day's analysis leaves a heap goal that holds its pages until the
	// next lap: return them when the lap ends, however it ends.
	defer debug.FreeOSMemory()
	if err := srv.recompute(seed+i, scale, minPts); err != nil {
		log.Printf("recompute: %v", err)
		return
	}
	log.Printf("queued: refreshed (%d spots)", len(srv.result().Spots))
	if hist != nil {
		// Only a run that found the same spot set can extend the store
		// (its grid/spot identity is fixed); another is logged and skipped.
		if err := hist.BackfillResult(int(i), srv.result()); err != nil {
			log.Printf("queued: history backfill day %d: %v", i, err)
		}
	}
	if err := fc.ObserveResult(int(i), srv.result()); err != nil {
		log.Printf("queued: forecast observe day %d: %v", i, err)
	}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	seed := flag.Int64("seed", 1, "simulation seed")
	scale := flag.Float64("scale", 0.25, "city scale")
	minPts := flag.Int("minpts", 50, "DBSCAN min-points")
	refresh := flag.Duration("refresh", 0, "recompute interval (0 = once at startup)")
	live := flag.Bool("live", false, "serve contexts from the live /ingest feed (batch run only bootstraps spots)")
	shards := flag.Int("shards", 4, "live mode: ingest shard count")
	liveSpots := flag.Bool("live-spots", false, "live mode: discover new queue spots online from pickups outside the batch list (serves /spots?live=1)")
	liveSpotWindow := flag.Duration("live-spot-window", 3*time.Hour, "live spot discovery: sliding pickup window")
	liveSpotMinPts := flag.Int("live-spot-minpts", 0, "live spot discovery: DBSCAN min-points over the window (0 = paper default 50)")
	walDir := flag.String("wal", "", "live mode: WAL directory (empty = durability off)")
	histDir := flag.String("history", "", "directory for the columnar slot-context history store (enables /history, /heatmap, /transitions)")
	withPprof := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof")
	flag.Parse()

	srv := newServer(obs.Default)
	log.Printf("queued: analyzing initial day (scale %.2f)...", *scale)
	if err := srv.recompute(*seed, *scale, *minPts); err != nil {
		log.Fatal(err)
	}
	log.Printf("queued: %d queue spots ready", len(srv.result().Spots))

	var hist *history.Store
	if *histDir != "" {
		var err error
		hist, err = newHistoryStore(*histDir, srv.result(), obs.Default)
		if err != nil {
			log.Fatal(err)
		}
		st := hist.Stats()
		log.Printf("queued: history store at %s (%d blocks, %d records recovered)",
			*histDir, st.Blocks, st.Records)
	}

	// The forecast learner always runs: /forecast and the ETA-aware
	// /recommend ranking work in every mode. Profiles are derived state,
	// never persisted; they are rebuilt from every recorded day.
	fc, err := newForecastLearner(srv.result(), obs.Default)
	if err != nil {
		log.Fatal(err)
	}
	srv.fc = fc
	if hist != nil {
		if err := fc.BackfillHistory(hist); err != nil {
			log.Printf("queued: forecast backfill: %v", err)
		}
	}
	if st := fc.Stats(); st.WeightFloor > 0 {
		log.Printf("queued: forecast profiles ready (total weight ~%d)", st.WeightFloor)
	}

	if *live {
		if *refresh > 0 {
			log.Printf("queued: -refresh is ignored in live mode (spots are fixed at startup)")
			*refresh = 0
		}
		cfg := ingest.Config{
			Stream:  liveStreamConfig(srv.result()),
			Clean:   clean.Config{ValidFrame: citymap.Island},
			Shards:  *shards,
			WALDir:  *walDir,
			Metrics: obs.Default, // one process-wide /metrics scrape
		}
		if *liveSpots {
			det := core.DefaultLiveDetectorConfig()
			det.Window = *liveSpotWindow
			if *liveSpotMinPts > 0 {
				det.Cluster.MinPoints = *liveSpotMinPts
			}
			cfg.LiveSpots = ingest.LiveSpotsConfig{Enabled: true, Detector: det}
			log.Printf("queued: live spot discovery on (window %s, minpts %d)",
				det.Window, det.Cluster.MinPoints)
		}
		// Every watermark advance records the newly-final contexts into
		// the history store (when enabled) AND folds them into the
		// forecast profiles; the live feed replays one day, recorded as
		// day 0.
		sinks := []ingest.HistoryAppender{fc}
		if hist != nil {
			sinks = append(sinks, hist)
		}
		cfg.History = ingest.TeeHistory(sinks...)
		svc, err := ingest.NewService(cfg)
		if err != nil {
			log.Fatal(err)
		}
		// From here on /spots and /context read the live snapshots.
		srv.svc = svc
		// Live /recommend defaults `at` to the newest final slot — what
		// the feed says now — never the batch day's noon.
		grid := srv.result().Config.Grid
		srv.defaultAt = func() (time.Time, bool) {
			if hist != nil {
				if day, slot, ok := hist.Latest(); ok {
					return hist.TimeOf(day, slot), true
				}
			}
			if snap := svc.Snapshot(); snap != nil && snap.FinalBelow > 0 {
				return grid.TimeOf(0, snap.FinalBelow-1), true
			}
			return time.Time{}, false
		}
		log.Printf("queued: live ingest on /ingest (%d shards)", *shards)
	}

	if !*live {
		// Batch mode: the analysis pass is the history and profile source.
		// Day 0 is the initial run; each -refresh lap backfills the next
		// day index.
		if hist != nil {
			if err := hist.BackfillResult(0, srv.result()); err != nil {
				log.Printf("queued: history backfill: %v", err)
			}
		}
		if err := fc.ObserveResult(0, srv.result()); err != nil {
			log.Printf("queued: forecast observe: %v", err)
		}
	}

	// Both modes drain HTTP, then close their durable state, on
	// SIGINT/SIGTERM (see serve).
	stopped, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *refresh > 0 {
		go func() {
			for i := int64(1); ; i++ {
				time.Sleep(*refresh)
				refreshLap(srv, hist, fc, *seed, i, *scale, *minPts)
			}
		}()
	}

	// Vehicle monitor endpoints over the busiest spots.
	monSvc := monitor.NewService()
	for i, sa := range srv.result().Spots {
		if i >= 5 {
			break
		}
		sp := sa.Spot
		name := sp.Zone.String() + "-" + sp.Pos.String()
		monSvc.Add(monitor.NewAreaCounter(name, geo.CirclePolygon(sp.Pos, 40, 12)))
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/", handleIndex)
	registerServe(mux, srv)
	if hist != nil {
		registerHistory(mux, &historyServer{hist: hist})
	}
	registerForecast(mux, &forecastServer{fc: fc})
	mux.HandleFunc("/recommend", srv.handleRecommend)
	mux.Handle("/monitors", monSvc)
	mux.Handle("/monitors/", monSvc)
	registerOps(mux, srv, obs.Default, *withPprof)
	// Set-up is done. The bootstrap day (and any WAL replay) left a heap
	// goal several times the live heap, which holds the day's pages: return
	// them before /healthz can answer, so queued never serves holding them.
	debug.FreeOSMemory()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("queued: listening on %s", ln.Addr())
	if err := serve(stopped, ln, mux, func() { shutdown(srv.svc, hist, fc) }); err != nil {
		log.Fatal(err)
	}
}
