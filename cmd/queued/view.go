package main

import (
	"net/http"
	"sync/atomic"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/clean"
	"taxiqueue/internal/cluster"
	"taxiqueue/internal/core"
	"taxiqueue/internal/forecast"
	"taxiqueue/internal/ingest"
	"taxiqueue/internal/obs"
	"taxiqueue/internal/sim"
)

// batchView is one immutable publication of the nightly batch analysis:
// everything the read path needs, computed once at (re)analysis time. The
// server swaps the current view in with a single atomic pointer store
// (RCU style) and handlers load it once per request — no handler takes a
// lock, and a recompute can never tear a response in half because a
// request that loaded the old pointer keeps reading the old, unchanged
// view to completion.
type batchView struct {
	city    *citymap.Map
	result  *core.Result
	grid    core.SlotGrid
	refresh time.Time

	// spotMeta is the slot-invariant part of the /spots payload (position,
	// zone, pickup count, nearest landmark), resolved once per publication
	// instead of once per request. Context is filled per slot at render
	// time.
	spotMeta []spotJSON

	// final is the analysed day as a cell snapshot, every slot final: what
	// /spots and /context serve in batch mode.
	final *ingest.Snapshot
}

// newBatchView derives the immutable read view from one analysis result.
func newBatchView(city *citymap.Map, res *core.Result) *batchView {
	v := &batchView{
		city:     city,
		result:   res,
		grid:     res.Config.Grid,
		refresh:  time.Now(),
		spotMeta: make([]spotJSON, len(res.Spots)),
		final:    ingest.FinalSnapshot(len(res.Spots), res.Config.Grid.Slots, res.Cell),
	}
	for i := range res.Spots {
		sa := &res.Spots[i]
		sj := spotJSON{
			Lat: sa.Spot.Pos.Lat, Lon: sa.Spot.Pos.Lon,
			Zone: sa.Spot.Zone.String(), Pickups: sa.Spot.PickupCount,
		}
		if lm, d, ok := city.NearestLandmark(sa.Spot.Pos); ok && d < 50 {
			sj.Landmark = lm.Name
		}
		v.spotMeta[i] = sj
	}
	return v
}

// slotBucket maps a query time onto a cache index: slot j for in-grid
// times, and one shared out-of-grid bucket (== grid.Slots) for everything
// else, since every out-of-grid time serves the identical all-Unidentified
// body.
func (v *batchView) slotBucket(at time.Time) int {
	j := v.grid.Index(at)
	if j < 0 || j >= v.grid.Slots {
		return v.grid.Slots
	}
	return j
}

// buckets is the cache width for slot-keyed endpoints.
func (v *batchView) buckets() int { return v.grid.Slots + 1 }

// spotsBody encodes the /spots body for one slot bucket, labelled from
// snap: a slot the snapshot has not made final yet (or an out-of-grid
// bucket) serves as Unidentified. With live set, the snapshot's
// online-discovered spots follow the batch list, flagged "live" with their
// lifecycle state.
func (v *batchView) spotsBody(snap *ingest.Snapshot, bucket int, live bool) []byte {
	out := make([]spotJSON, len(v.spotMeta))
	copy(out, v.spotMeta)
	for i := range out {
		label := core.Unidentified
		if bucket < v.grid.Slots {
			if lb, ok := snap.Label(i, bucket); ok {
				label = lb
			}
		}
		out[i].Context = label.String()
	}
	if live {
		for _, ls := range snap.Live() {
			sj := spotJSON{
				Lat: ls.Spot.Pos.Lat, Lon: ls.Spot.Pos.Lon,
				Zone: ls.Spot.Zone.String(), Pickups: ls.Spot.PickupCount,
				// No batch thresholds exist for a spot discovered
				// minutes ago, so no context is claimed for it yet.
				Context: core.Unidentified.String(),
				State:   ls.State.String(), Live: true,
			}
			if lm, d, ok := v.city.NearestLandmark(ls.Spot.Pos); ok && d < 50 {
				sj.Landmark = lm.Name
			}
			out = append(out, sj)
		}
	}
	return encodeJSON(out)
}

// contextJSON is the wire format of one (spot, slot) cell on /context: the
// classified context plus the §5.2 features behind it. Final reports
// whether the cell can no longer change (every in-grid cell in batch mode;
// in live mode only once every shard's watermark passes the slot).
type contextJSON struct {
	Spot    int     `json:"spot"`
	Context string  `json:"context"`
	Final   bool    `json:"final"`
	TWaitS  float64 `json:"t_wait_s"`
	NArr    float64 `json:"n_arr"`
	QLen    float64 `json:"q_len"`
	TDepS   float64 `json:"t_dep_s"`
	NDep    float64 `json:"n_dep"`
}

// cellJSON fills one contextJSON from a label + feature pair.
func cellJSON(spot int, label core.QueueType, f core.SlotFeatures, final bool) contextJSON {
	return contextJSON{
		Spot: spot, Context: label.String(), Final: final,
		TWaitS: f.TWait.Seconds(), NArr: f.NArr, QLen: f.QLen,
		TDepS: f.TDep.Seconds(), NDep: f.NDep,
	}
}

// contextBody encodes the /context body for one slot bucket from snap.
func (v *batchView) contextBody(snap *ingest.Snapshot, bucket int) []byte {
	out := make([]contextJSON, len(v.spotMeta))
	for i := range out {
		if bucket >= v.grid.Slots {
			// Out-of-grid times never resolve to a cell, even when the
			// live engine's grid extends past the batch day.
			out[i] = cellJSON(i, core.Unidentified, core.SlotFeatures{}, false)
			continue
		}
		feats, label, final := snap.Context(i, bucket)
		out[i] = cellJSON(i, label, feats, final)
	}
	return encodeJSON(out)
}

// server owns the published batch view and the per-endpoint response
// caches. There is no mutex anywhere on the read path: recompute publishes
// a fresh *batchView, the ingest service publishes fresh snapshots,
// handlers load both once, and the caches invalidate on pointer identity.
type server struct {
	view atomic.Pointer[batchView]

	// svc is the live ingest service; nil in batch mode. It alone decides
	// where /spots and /context labels come from: its newest published
	// snapshot when set, the view's final snapshot of the batch day when
	// not.
	svc *ingest.Service

	spotsCache   *renderCache
	liveCache    *renderCache // /spots?live=1
	contextCache *renderCache
	estCache     *renderCache

	// fc, when set (before serving), upgrades /recommend to rank by the
	// expected state at arrival and backs /forecast. Reads load its
	// published table atomically — still no lock on the read path.
	fc *forecast.Learner
	// defaultAt, when set, supplies the default /recommend evaluation
	// instant (live mode: the newest final slot); nil falls back to
	// noon of the batch day.
	defaultAt func() (time.Time, bool)
}

// newServer wires the response caches to reg (obs.Default in the binary,
// private registries in tests).
func newServer(reg *obs.Registry) *server {
	return &server{
		spotsCache:   newRenderCache(reg, "spots"),
		liveCache:    newRenderCache(reg, "spots_live"),
		contextCache: newRenderCache(reg, "context"),
		estCache:     newRenderCache(reg, "estimate"),
	}
}

// recompute runs the nightly batch analysis and publishes the result as a
// fresh immutable view. The simulated day is cleaned in place: nothing
// reads the raw records again, and the day is held once. Nothing queued
// serves reads the pickups or the waits: they are dropped before
// publishing.
func (s *server) recompute(seed int64, scale float64, minPts int) error {
	city := s.city()
	if city == nil {
		city = citymap.Generate(seed, scale)
	}
	out := sim.Run(sim.Config{Seed: seed, City: city, InjectFaults: true})
	cleaned, _ := clean.Compact(out.Records, clean.Config{ValidFrame: citymap.Island})
	cfg := core.DefaultEngineConfig()
	cfg.Detector.Cluster = cluster.Params{EpsMeters: 15, MinPoints: minPts}
	engine, err := core.NewEngine(cfg)
	if err != nil {
		return err
	}
	res, err := engine.Analyze(cleaned)
	if err != nil {
		return err
	}
	res.Pickups = nil
	for i := range res.Spots {
		res.Spots[i].Waits = nil
	}
	s.view.Store(newBatchView(city, res))
	return nil
}

// spotsAndThresholds splits a batch result into the parallel spot and
// threshold slices that configure the live engine, the history store and
// the forecast learner.
func spotsAndThresholds(res *core.Result) ([]core.QueueSpot, []core.Thresholds) {
	spots := make([]core.QueueSpot, len(res.Spots))
	ths := make([]core.Thresholds, len(res.Spots))
	for i := range res.Spots {
		spots[i] = res.Spots[i].Spot
		ths[i] = res.Spots[i].Thresholds
	}
	return spots, ths
}

// city returns the current view's map (nil before the first recompute).
func (s *server) city() *citymap.Map {
	if v := s.view.Load(); v != nil {
		return v.city
	}
	return nil
}

// result returns the current view's analysis (nil before the first
// recompute).
func (s *server) result() *core.Result {
	if v := s.view.Load(); v != nil {
		return v.result
	}
	return nil
}

// epoch is the cache key of the cell endpoints: the pair of published
// pointers a body was rendered from, compared by identity.
type epoch struct {
	view *batchView
	snap *ingest.Snapshot
}

// load resolves the request's view, snapshot and slot bucket, answering
// 503 / 400 itself when the server is not ready or the timestamp is bad.
func (s *server) load(w http.ResponseWriter, r *http.Request) (*batchView, *ingest.Snapshot, int, bool) {
	v := s.view.Load()
	if v == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return nil, nil, 0, false
	}
	at := v.grid.Start.Add(12 * time.Hour)
	if q := r.URL.Query().Get("at"); q != "" {
		t, err := time.Parse(time.RFC3339, q)
		if err != nil {
			http.Error(w, "bad 'at' timestamp", http.StatusBadRequest)
			return nil, nil, 0, false
		}
		at = t
	}
	snap := v.final
	if s.svc != nil {
		snap = s.svc.Snapshot()
	}
	return v, snap, v.slotBucket(at), true
}
