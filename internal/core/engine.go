package core

import (
	"fmt"
	"sync"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/mdt"
)

// EngineConfig parameterizes the two-tier queue analytic engine (Fig. 4).
type EngineConfig struct {
	// SpeedThresholdKmh is PEA's η_sp; 10 km/h when zero.
	SpeedThresholdKmh float64
	// Detector holds the spot-detection (DBSCAN) settings.
	Detector DetectorConfig
	// AssignRadiusMeters bounds the pickup-to-spot assignment distance
	// when building W(r); 30 m when zero (twice the cluster ε).
	AssignRadiusMeters float64
	// Grid is the time-slot partition; the 48×30-minute grid over the
	// day containing the first record when zero.
	Grid SlotGrid
	// Amplify is the §6.2.1 dataset-coverage correction;
	// PaperAmplification suits a 60% feed.
	Amplify Amplification
	// Parallelism fans spot detection and the per-spot stages over a
	// worker pool; 0 uses GOMAXPROCS, 1 forces the sequential path.
	// Results are identical at any setting. PEA runs in one sequential
	// pass over the day whatever the setting.
	Parallelism int
}

// DefaultEngineConfig returns the paper's settings for a 60%-coverage daily
// dataset.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{
		SpeedThresholdKmh:  DefaultSpeedThresholdKmh,
		Detector:           DefaultDetectorConfig(),
		AssignRadiusMeters: 30,
		Amplify:            PaperAmplification,
	}
}

// SpotAnalysis is the engine's full output for one detected queue spot.
type SpotAnalysis struct {
	Spot       QueueSpot
	Waits      []Wait
	Features   []SlotFeatures
	Thresholds Thresholds
	Labels     []QueueType
}

// LabelAt returns the queue type of the slot containing t.
func (a *SpotAnalysis) LabelAt(grid SlotGrid, t time.Time) QueueType {
	j := grid.Index(t)
	if j < 0 || j >= len(a.Labels) {
		return Unidentified
	}
	return a.Labels[j]
}

// Result is the engine's output for one dataset.
type Result struct {
	Config EngineConfig
	// Pickups is every PEA-extracted pickup event (the GPS location set C
	// feeds DBSCAN; the full set is kept for diagnostics and Fig. 6).
	Pickups []Pickup
	// Spots is the per-spot analysis, ordered by descending pickup count.
	Spots []SpotAnalysis
	// ZoneStreetRatio is the per-zone street-job share used for τ_ratio.
	ZoneStreetRatio [citymap.NumZones]float64
}

// SpotCountByZone tallies detected spots per zone (Fig. 8).
func (r *Result) SpotCountByZone() [citymap.NumZones]int {
	var out [citymap.NumZones]int
	for _, s := range r.Spots {
		out[s.Spot.Zone]++
	}
	return out
}

// Cell returns spot's features and context at slot index j — the
// uniform cell accessor batch consumers (history backfill) read the grid
// through. Out-of-range indexes yield the zero features and Unidentified.
func (r *Result) Cell(spot, j int) (SlotFeatures, QueueType) {
	if spot < 0 || spot >= len(r.Spots) {
		return SlotFeatures{}, Unidentified
	}
	a := &r.Spots[spot]
	var f SlotFeatures
	label := Unidentified
	if j >= 0 && j < len(a.Features) {
		f = a.Features[j]
	}
	if j >= 0 && j < len(a.Labels) {
		label = a.Labels[j]
	}
	return f, label
}

// Engine is the two-tier queue analytic engine: the lower tier detects
// queue spots from slow pickup events; the upper tier disambiguates each
// spot's per-slot queue context.
type Engine struct {
	cfg EngineConfig
}

// NewEngine validates cfg (applying documented defaults) and returns an
// engine.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.SpeedThresholdKmh == 0 {
		cfg.SpeedThresholdKmh = DefaultSpeedThresholdKmh
	}
	if cfg.SpeedThresholdKmh < 0 {
		return nil, fmt.Errorf("core: negative speed threshold %g", cfg.SpeedThresholdKmh)
	}
	if cfg.Detector.Cluster.EpsMeters == 0 && cfg.Detector.Cluster.MinPoints == 0 {
		cfg.Detector = DefaultDetectorConfig()
	}
	if cfg.Parallelism < 0 {
		return nil, fmt.Errorf("core: negative parallelism %d", cfg.Parallelism)
	}
	if cfg.Detector.Parallelism == 0 {
		// One knob drives the whole pipeline: per-zone clustering,
		// DBSCAN itself and per-spot QCD.
		cfg.Detector.Parallelism = cfg.Parallelism
	}
	if err := cfg.Detector.Cluster.Validate(); err != nil {
		return nil, err
	}
	if cfg.AssignRadiusMeters == 0 {
		cfg.AssignRadiusMeters = 2 * cfg.Detector.Cluster.EpsMeters
	}
	if cfg.Amplify.Factor == 0 {
		cfg.Amplify = NoAmplification
	}
	return &Engine{cfg: cfg}, nil
}

// Analyze runs the full pipeline over a cleaned, time-ordered dataset:
// PEA → spot detection → W(r) assignment → WTE → features → thresholds →
// QCD.
func (e *Engine) Analyze(recs []mdt.Record) (*Result, error) {
	cfg := e.cfg
	if len(recs) == 0 {
		return &Result{Config: cfg}, nil
	}
	if cfg.Grid.Slots == 0 {
		first := recs[0].Time
		midnight := time.Date(first.Year(), first.Month(), first.Day(), 0, 0, 0, 0, time.UTC)
		cfg.Grid = DaySlots(midnight)
	}

	// Tier 1: queue spot detection.
	t0 := time.Now()
	pickups := extractDay(recs, cfg.SpeedThresholdKmh)
	stagePEA.Since(t0)
	t0 = time.Now()
	spots, err := DetectSpots(pickups, cfg.Detector)
	if err != nil {
		return nil, err
	}
	stageDBSCAN.Since(t0)

	// Tier 2: queue context disambiguation.
	t0 = time.Now()
	assigned := AssignPickups(pickups, spots, cfg.AssignRadiusMeters)
	res := &Result{Config: cfg, Pickups: pickups, Spots: make([]SpotAnalysis, len(spots))}

	// Zone street-job ratios from all spots' waits.
	var streetByZone, totalByZone [citymap.NumZones]int
	allWaits := make([][]Wait, len(spots))
	for i := range spots {
		waits := ExtractWaits(assigned[i])
		allWaits[i] = waits
		z := spots[i].Zone
		for _, w := range waits {
			if w.Street() {
				streetByZone[z]++
			}
			totalByZone[z]++
		}
	}
	stageWTE.Since(t0)
	for z := 0; z < citymap.NumZones; z++ {
		if totalByZone[z] == 0 {
			res.ZoneStreetRatio[z] = 1
		} else {
			res.ZoneStreetRatio[z] = float64(streetByZone[z]) / float64(totalByZone[z])
		}
	}

	analyzeSpot := func(i int) {
		waits := allWaits[i]
		feats := ComputeFeatures(waits, cfg.Grid, cfg.Amplify)
		rawFeats := feats
		if cfg.Amplify != NoAmplification {
			rawFeats = ComputeFeatures(waits, cfg.Grid, NoAmplification)
		}
		th := SelectThresholds(rawFeats, cfg.Grid, res.ZoneStreetRatio[spots[i].Zone])
		res.Spots[i] = SpotAnalysis{
			Spot:       spots[i],
			Waits:      waits,
			Features:   feats,
			Thresholds: th,
			Labels:     Classify(feats, th),
		}
	}
	t0 = time.Now()
	workers := capWorkers(cfg.Parallelism)
	if workers == 1 || len(spots) < 2 {
		for i := range spots {
			analyzeSpot(i)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					analyzeSpot(i)
				}
			}()
		}
		for i := range spots {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	stageQCD.Since(t0)
	pipelineRuns.Inc()
	pipelineRecords.Set(int64(len(recs)))
	pipelineSpots.Set(int64(len(spots)))
	return res, nil
}
