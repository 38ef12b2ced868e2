package main

import (
	"fmt"
	"sync"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/clean"
	"taxiqueue/internal/cluster"
	"taxiqueue/internal/core"
	"taxiqueue/internal/forecast"
	"taxiqueue/internal/history"
	"taxiqueue/internal/ingest"
	"taxiqueue/internal/mdt"
	"taxiqueue/internal/sim"
	"taxiqueue/internal/stream"
)

// The replica rebuilds queued's state in this process, through the same
// public functions cmd/queued's main calls, so the benchmark can check the
// server's answers and replay its request sequence layer by layer. Each
// helper below mirrors one step of queued's start-up; keep them in step
// with cmd/queued when its wiring changes.

// The served workloads' queued settings: a quarter-scale city whose
// bootstrap day detects a few dozen spots. citySeed fixes the city (and so
// queued's bootstrap day) for every run: the landmark layout sets how much
// work every layer does, so a city drawn from the workload seed would make
// run-to-run spread a property of the seed rather than of the code. The
// workload seed draws the requests and the simulated feed days instead.
const (
	citySeed     = 1
	queuedScale  = 0.25
	queuedMinPts = 25
	queuedShards = 2
)

// bootDay simulates the day queued -seed citySeed analyzes at start-up
// (its recompute step): raw records, faults injected.
func bootDay() (*citymap.Map, []mdt.Record) {
	city := citymap.Generate(citySeed, queuedScale)
	return city, sim.Run(sim.Config{Seed: citySeed, City: city, InjectFaults: true}).Records
}

// surgeDay simulates a demand-shock day of the same city from seed: fleet
// times the fleet queued's own day ran with.
func surgeDay(seed int64, city *citymap.Map, fleet int) []mdt.Record {
	return sim.Run(sim.Config{
		Seed: seed, City: city, InjectFaults: true,
		NumTaxis: fleet * sim.DefaultFleet(city),
	}).Records
}

// bootEngineConfig is queued's engine configuration for -minpts.
func bootEngineConfig() core.EngineConfig {
	cfg := core.DefaultEngineConfig()
	cfg.Detector.Cluster = cluster.Params{EpsMeters: 15, MinPoints: queuedMinPts}
	return cfg
}

// cleanConfig is the validation queued applies to the bootstrap day and
// to every live record.
var cleanConfig = clean.Config{ValidFrame: citymap.Island}

// analyze cleans and analyzes raw the way queued's recompute does. With a
// tracer it runs the stage-by-stage copy instead of Engine.Analyze.
func analyze(raw []mdt.Record, cfg core.EngineConfig, tr *tracer, req int64) (*core.Result, clean.Stats, error) {
	if tr != nil {
		return analyzeStages(raw, cfg, tr, req)
	}
	cleaned, st := clean.Clean(raw, cleanConfig)
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, st, err
	}
	res, err := eng.Analyze(cleaned)
	return res, st, err
}

// spotsAndThresholds splits a result into the per-spot slices the live
// tier, the history store and the forecast learner are configured with.
func spotsAndThresholds(res *core.Result) ([]core.QueueSpot, []core.Thresholds) {
	spots := make([]core.QueueSpot, len(res.Spots))
	ths := make([]core.Thresholds, len(res.Spots))
	for i := range res.Spots {
		spots[i] = res.Spots[i].Spot
		ths[i] = res.Spots[i].Thresholds
	}
	return spots, ths
}

// openHistory opens the history store at dir for res (queued's
// newHistoryStore).
func openHistory(dir string, res *core.Result) (*history.Store, error) {
	spots, ths := spotsAndThresholds(res)
	return history.Open(history.Config{
		Grid: res.Config.Grid, Spots: spots, Thresholds: ths,
		Amplify: res.Config.Amplify, Dir: dir,
	})
}

// openForecast opens a memory-only forecast learner for res (queued's
// newForecastLearner without -forecast).
func openForecast(res *core.Result) (*forecast.Learner, error) {
	_, ths := spotsAndThresholds(res)
	return forecast.Open(forecast.Config{Grid: res.Config.Grid, Spots: len(res.Spots), Thresholds: ths})
}

// replica is queued's serving state, rebuilt in process.
type replica struct {
	res  *core.Result
	svc  *ingest.Service // live mode only
	fc   *forecast.Learner
	hist *history.Store // nil without a history directory

	// publish[k] is when the copy saw slot k become final (zero until it
	// does); filled by the sink wrappers of a live replica.
	mu      sync.Mutex
	publish []time.Time

	// observed accumulates the copy's read results, so that no call is
	// optimized away.
	observed int
}

// newReplica builds the serving state for res the way queued's main does:
// history store (when histDir is set), forecast learner backfilled from
// it, and for a live replica the ingest service with both as its sinks.
// Sink calls and the start-up steps are recorded as spans on tr.
func newReplica(res *core.Result, histDir string, live bool, tr *tracer) (*replica, error) {
	r := &replica{res: res, publish: make([]time.Time, res.Config.Grid.Slots)}
	var err error
	if histDir != "" {
		tr.timed("history.Open", 0, spanRef{}, func() { r.hist, err = openHistory(histDir, res) })
		if err != nil {
			return nil, err
		}
	}
	if r.fc, err = openForecast(res); err != nil {
		return nil, err
	}
	if r.hist != nil {
		tr.timed("forecast.BackfillHistory", 0, spanRef{}, func() { err = r.fc.BackfillHistory(r.hist) })
		if err != nil {
			return nil, err
		}
	}
	if !live {
		if r.hist != nil {
			if err := r.hist.BackfillResult(0, res); err != nil {
				return nil, err
			}
		}
		return r, r.fc.ObserveResult(0, res)
	}
	spots, ths := spotsAndThresholds(res)
	sinks := []ingest.HistoryAppender{&tracedSink{"forecast.AppendSlots", r.fc, tr, r}}
	if r.hist != nil {
		sinks = append(sinks, &tracedSink{"history.AppendSlots", r.hist, tr, nil})
	}
	r.svc, err = ingest.NewService(ingest.Config{
		Stream: stream.Config{
			Spots: spots, Thresholds: ths,
			Grid: res.Config.Grid, Amplify: res.Config.Amplify,
		},
		Clean:   cleanConfig,
		Shards:  queuedShards,
		History: ingest.TeeHistory(sinks...),
	})
	return r, err
}

// close releases the replica's services.
func (r *replica) close() {
	if r.svc != nil {
		_ = r.svc.Close()
	}
	if r.hist != nil {
		_ = r.hist.Close()
	}
	_ = r.fc.Close()
}

// tracedSink wraps one history sink of the ingest tee: every call is a
// span, and the first sink of the tee also notes when each slot first
// became final (the tee runs right after a snapshot is published).
type tracedSink struct {
	name string
	next ingest.HistoryAppender
	tr   *tracer
	pub  *replica // nil except on the sink that records publish times
}

func (s *tracedSink) AppendSlots(day, lo, hi int, at func(spot, slot int) (core.SlotFeatures, core.QueueType)) error {
	if s.pub != nil {
		now := time.Now()
		s.pub.mu.Lock()
		for k := 0; k < hi && k < len(s.pub.publish); k++ {
			if s.pub.publish[k].IsZero() {
				s.pub.publish[k] = now
			}
		}
		s.pub.mu.Unlock()
	}
	sp := s.tr.begin(s.name, 0, spanRef{})
	defer sp.end()
	return s.next.AppendSlots(day, lo, hi, at)
}

func (s *tracedSink) Flush() error { return s.next.Flush() }

// feed decodes and accepts every batch (the /ingest handler's work) and
// then flushes, making every slot final.
func (r *replica) feed(batches []batch) error {
	if _, _, _, err := r.replay(nil, batches, nil); err != nil {
		return err
	}
	return r.svc.Flush()
}

// decodeBatch parses a binary /ingest body the way the handler does.
func decodeBatch(body []byte) ([]mdt.Record, error) {
	var recs []mdt.Record
	for len(body) > 0 {
		rec, n, err := mdt.DecodeBinary(body)
		if err != nil {
			return nil, fmt.Errorf("bad frame after %d records: %w", len(recs), err)
		}
		recs = append(recs, rec)
		body = body[n:]
	}
	return recs, nil
}
