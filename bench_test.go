package taxiqueue

// One benchmark per paper table/figure plus stage and ablation benches.
// The experiment benches share a tenth-scale suite: the first benchmark to
// touch a weekday pays for its simulation; subsequent iterations measure
// the table/figure regeneration itself.

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/clean"
	"taxiqueue/internal/cluster"
	"taxiqueue/internal/core"
	"taxiqueue/internal/experiments"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
	"taxiqueue/internal/sim"
	"taxiqueue/internal/store"
)

var (
	suiteOnce  sync.Once
	benchSuite *experiments.Suite
)

func getSuite() *experiments.Suite {
	suiteOnce.Do(func() {
		benchSuite = experiments.NewSuite(experiments.Config{Seed: 99, CityScale: 0.1})
	})
	return benchSuite
}

func benchExperiment(b *testing.B, fn func() error) {
	b.Helper()
	getSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fn(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- experiment benches: one per table/figure -----------------------------

func BenchmarkExperimentCleaning(b *testing.B) {
	benchExperiment(b, func() error { _, _, err := getSuite().Cleaning(); return err })
}

func BenchmarkExperimentFig6DBSCANSweep(b *testing.B) {
	benchExperiment(b, func() error { _, _, err := getSuite().Fig6(); return err })
}

func BenchmarkExperimentFig7SpotMap(b *testing.B) {
	benchExperiment(b, func() error { _, _, err := getSuite().Fig7(); return err })
}

func BenchmarkExperimentTable4Landmarks(b *testing.B) {
	benchExperiment(b, func() error { _, _, err := getSuite().Table4(); return err })
}

func BenchmarkExperimentFig8SpotsByZoneDay(b *testing.B) {
	benchExperiment(b, func() error { _, _, err := getSuite().Fig8(); return err })
}

func BenchmarkExperimentTable5Hausdorff(b *testing.B) {
	benchExperiment(b, func() error { _, _, err := getSuite().Table5(); return err })
}

func BenchmarkExperimentTable6PickupCounts(b *testing.B) {
	benchExperiment(b, func() error { _, _, err := getSuite().Table6(); return err })
}

func BenchmarkExperimentTable7QueueTypes(b *testing.B) {
	benchExperiment(b, func() error { _, _, err := getSuite().Table7(); return err })
}

func BenchmarkExperimentFig9QueueTypesByDay(b *testing.B) {
	benchExperiment(b, func() error { _, _, err := getSuite().Fig9(); return err })
}

func BenchmarkExperimentTable8Validation(b *testing.B) {
	benchExperiment(b, func() error { _, _, err := getSuite().Table8(); return err })
}

func BenchmarkExperimentTable9LuckyPlaza(b *testing.B) {
	benchExperiment(b, func() error { _, _, err := getSuite().Table9(); return err })
}

func BenchmarkExperimentDriverBehavior(b *testing.B) {
	benchExperiment(b, func() error { _, _, err := getSuite().DriverBehavior(); return err })
}

func BenchmarkExperimentTransitions(b *testing.B) {
	benchExperiment(b, func() error { _, _, err := getSuite().Transitions(); return err })
}

func BenchmarkExperimentAblationAmplify(b *testing.B) {
	benchExperiment(b, func() error { _, _, err := getSuite().AblationAmplification(); return err })
}

func BenchmarkExperimentAblationZoning(b *testing.B) {
	benchExperiment(b, func() error { _, _, err := getSuite().AblationZoning(); return err })
}

// --- stage benches: the pipeline's heavy phases ----------------------------

var (
	dayOnce    sync.Once
	dayRecords []mdt.Record
	dayPickups []core.Pickup
)

func getDay(b *testing.B) ([]mdt.Record, []core.Pickup) {
	b.Helper()
	dayOnce.Do(func() {
		out := sim.Run(sim.Config{Seed: 5, City: citymap.Generate(50, 0.1), InjectFaults: true})
		dayRecords, _ = clean.Clean(out.Records, clean.Config{ValidFrame: citymap.Island})
		dayPickups = core.ExtractAll(mdt.SplitByTaxi(dayRecords), core.DefaultSpeedThresholdKmh)
	})
	return dayRecords, dayPickups
}

func BenchmarkStageSimulateDay(b *testing.B) {
	city := citymap.Generate(51, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(sim.Config{Seed: int64(i), City: city})
	}
}

func BenchmarkStageClean(b *testing.B) {
	out := sim.Run(sim.Config{Seed: 6, City: citymap.Generate(52, 0.05), InjectFaults: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clean.Clean(out.Records, clean.Config{ValidFrame: citymap.Island})
	}
}

func BenchmarkStagePEA(b *testing.B) {
	recs, _ := getDay(b)
	byTaxi := mdt.SplitByTaxi(recs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ExtractAll(byTaxi, core.DefaultSpeedThresholdKmh)
	}
}

func BenchmarkStagePEAParallel(b *testing.B) {
	recs, _ := getDay(b)
	byTaxi := mdt.SplitByTaxi(recs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ExtractAllParallel(byTaxi, core.DefaultSpeedThresholdKmh, 0)
	}
}

func BenchmarkStageDetectSpots(b *testing.B) {
	_, pickups := getDay(b)
	cfg := core.DefaultDetectorConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DetectSpots(pickups, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageSweep is the Fig. 6 (eps, minPts) cross product over the
// day's pickup centroids: one grid index per eps row, cells fanned over the
// worker pool.
func BenchmarkStageSweep(b *testing.B) {
	_, pickups := getDay(b)
	pts := make([]geo.Point, len(pickups))
	for i, p := range pickups {
		pts[i] = p.Centroid
	}
	eps := []float64{5, 10, 15, 20}
	minPts := []int{25, 50, 100, 150}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.SweepParallel(pts, eps, minPts, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStageSplitByTaxi(b *testing.B) {
	recs, _ := getDay(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mdt.SplitByTaxi(recs)
	}
}

// BenchmarkStageLoadDay is the batch job's set-up: the day saved as a store
// file, read back with store.LoadFile and one full time-ordered Scan.
func BenchmarkStageLoadDay(b *testing.B) {
	recs, _ := getDay(b)
	s := store.New()
	if err := s.AppendAll(recs); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "day.tqs")
	if err := s.SaveFile(path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loaded, err := store.LoadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		loaded.Scan(time.Time{}, time.Unix(1<<40, 0), func(mdt.Record) bool { n++; return true })
		if n != len(recs) {
			b.Fatalf("scanned %d of %d records", n, len(recs))
		}
	}
}

func BenchmarkStageFullAnalyze(b *testing.B) {
	recs, _ := getDay(b)
	engine, err := core.NewEngine(core.DefaultEngineConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Analyze(recs); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches: the DESIGN.md design choices ------------------------

// Zoned vs island-wide clustering (§6.1.2's O(n²) mitigation).
func BenchmarkAblationClusterByZone(b *testing.B) {
	_, pickups := getDay(b)
	cfg := core.DefaultDetectorConfig()
	cfg.ByZone = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DetectSpots(pickups, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationClusterIslandWide(b *testing.B) {
	_, pickups := getDay(b)
	cfg := core.DefaultDetectorConfig()
	cfg.ByZone = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DetectSpots(pickups, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// DBSCAN neighbour-search backends over the day's real pickup centroids:
// the grid index against the linear-scan reference.
func benchDBSCANBackend(b *testing.B, dbscan func(pts []geo.Point, p cluster.Params) (cluster.Result, error)) {
	b.Helper()
	_, pickups := getDay(b)
	pts := make([]geo.Point, len(pickups))
	for i, p := range pickups {
		pts[i] = p.Centroid
	}
	params := cluster.Params{EpsMeters: 15, MinPoints: 50}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dbscan(pts, params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDBSCANGrid(b *testing.B)  { benchDBSCANBackend(b, cluster.DBSCAN) }
func BenchmarkAblationDBSCANNaive(b *testing.B) { benchDBSCANBackend(b, cluster.DBSCANNaive) }

// Partitioned DBSCAN with union-find merge at fixed worker counts, against
// the sequential grid run above.
func BenchmarkAblationDBSCANParallel1(b *testing.B) { benchDBSCANParallel(b, 1) }
func BenchmarkAblationDBSCANParallel4(b *testing.B) { benchDBSCANParallel(b, 4) }
func BenchmarkAblationDBSCANParallel8(b *testing.B) { benchDBSCANParallel(b, 8) }

func benchDBSCANParallel(b *testing.B, workers int) {
	b.Helper()
	_, pickups := getDay(b)
	pts := make([]geo.Point, len(pickups))
	for i, p := range pickups {
		pts[i] = p.Centroid
	}
	params := cluster.Params{EpsMeters: 15, MinPoints: 50}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.DBSCANParallel(pts, params, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// PEA speed-threshold sensitivity (the paper fixes η_sp = 10 km/h).
func BenchmarkAblationPEAThreshold5(b *testing.B)  { benchPEAThreshold(b, 5) }
func BenchmarkAblationPEAThreshold10(b *testing.B) { benchPEAThreshold(b, 10) }
func BenchmarkAblationPEAThreshold20(b *testing.B) { benchPEAThreshold(b, 20) }

func benchPEAThreshold(b *testing.B, kmh float64) {
	b.Helper()
	recs, _ := getDay(b)
	byTaxi := mdt.SplitByTaxi(recs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ExtractAll(byTaxi, kmh)
	}
}
