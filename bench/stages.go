package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/clean"
	"taxiqueue/internal/core"
	"taxiqueue/internal/mdt"
)

// analyzeStages is clean.Clean followed by core.Engine.Analyze, spelled
// out stage by stage through the packages' public functions so each stage
// is its own span under one "pipeline.day" root. It resolves cfg's
// defaults as core.NewEngine does and must produce the same Result;
// pipeline_day checks that it does.
func analyzeStages(raw []mdt.Record, cfg core.EngineConfig, tr *tracer, req int64) (*core.Result, clean.Stats, error) {
	root := tr.begin("pipeline.day", req, spanRef{})
	defer root.end()
	var cleaned []mdt.Record
	var st clean.Stats
	tr.timed("clean.Clean", req, root, func() { cleaned, st = clean.Clean(raw, cleanConfig) })

	if cfg.SpeedThresholdKmh == 0 {
		cfg.SpeedThresholdKmh = core.DefaultSpeedThresholdKmh
	}
	if cfg.Detector.Parallelism == 0 {
		cfg.Detector.Parallelism = cfg.Parallelism
	}
	if cfg.AssignRadiusMeters == 0 {
		cfg.AssignRadiusMeters = 2 * cfg.Detector.Cluster.EpsMeters
	}
	if cfg.Amplify.Factor == 0 {
		cfg.Amplify = core.NoAmplification
	}
	if len(cleaned) == 0 {
		return &core.Result{Config: cfg}, st, nil
	}
	if cfg.Grid.Slots == 0 {
		first := cleaned[0].Time
		cfg.Grid = core.DaySlots(time.Date(first.Year(), first.Month(), first.Day(), 0, 0, 0, 0, time.UTC))
	}

	var byTaxi map[string]mdt.Trajectory
	tr.timed("core.split", req, root, func() { byTaxi = mdt.SplitByTaxi(cleaned) })
	var pickups []core.Pickup
	tr.timed("core.pea", req, root, func() {
		pickups = core.ExtractAllParallel(byTaxi, cfg.SpeedThresholdKmh, cfg.Parallelism)
	})
	var spots []core.QueueSpot
	var err error
	tr.timed("core.dbscan", req, root, func() { spots, err = core.DetectSpots(pickups, cfg.Detector) })
	if err != nil {
		return nil, st, err
	}

	res := &core.Result{Config: cfg, Pickups: pickups, Spots: make([]core.SpotAnalysis, len(spots))}
	allWaits := make([][]core.Wait, len(spots))
	tr.timed("core.wte", req, root, func() {
		assigned := core.AssignPickups(pickups, spots, cfg.AssignRadiusMeters)
		var street, total [citymap.NumZones]int
		for i := range spots {
			allWaits[i] = core.ExtractWaits(assigned[i])
			for _, w := range allWaits[i] {
				if w.Street() {
					street[spots[i].Zone]++
				}
				total[spots[i].Zone]++
			}
		}
		for z := range res.ZoneStreetRatio {
			res.ZoneStreetRatio[z] = 1
			if total[z] > 0 {
				res.ZoneStreetRatio[z] = float64(street[z]) / float64(total[z])
			}
		}
	})
	tr.timed("core.qcd", req, root, func() {
		spot := func(i int) {
			feats := core.ComputeFeatures(allWaits[i], cfg.Grid, cfg.Amplify)
			raw := feats
			if cfg.Amplify != core.NoAmplification {
				raw = core.ComputeFeatures(allWaits[i], cfg.Grid, core.NoAmplification)
			}
			th := core.SelectThresholds(raw, cfg.Grid, res.ZoneStreetRatio[spots[i].Zone])
			res.Spots[i] = core.SpotAnalysis{
				Spot: spots[i], Waits: allWaits[i], Features: feats,
				Thresholds: th, Labels: core.Classify(feats, th),
			}
		}
		workers := runtime.GOMAXPROCS(0)
		if cfg.Parallelism > 0 && cfg.Parallelism < workers {
			workers = cfg.Parallelism
		}
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					spot(i)
				}
			}()
		}
		for i := range spots {
			next <- i
		}
		close(next)
		wg.Wait()
	})
	return res, st, nil
}

// sameAnalysis reports the first difference between two results' spots,
// waits and labels; nil when they agree.
func sameAnalysis(a, b *core.Result) error {
	if len(a.Pickups) != len(b.Pickups) {
		return fmt.Errorf("%d pickups vs %d", len(a.Pickups), len(b.Pickups))
	}
	if len(a.Spots) != len(b.Spots) {
		return fmt.Errorf("%d spots vs %d", len(a.Spots), len(b.Spots))
	}
	for i := range a.Spots {
		x, y := &a.Spots[i], &b.Spots[i]
		if x.Spot.Pos != y.Spot.Pos || len(x.Waits) != len(y.Waits) || len(x.Labels) != len(y.Labels) {
			return fmt.Errorf("spot %d differs", i)
		}
		for j := range x.Labels {
			if x.Labels[j] != y.Labels[j] {
				return fmt.Errorf("spot %d slot %d: label %v vs %v", i, j, x.Labels[j], y.Labels[j])
			}
		}
	}
	return nil
}

// waitCount totals the waits over every spot.
func waitCount(res *core.Result) int {
	n := 0
	for _, s := range res.Spots {
		n += len(s.Waits)
	}
	return n
}
