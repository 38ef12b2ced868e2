package core

import (
	"testing"

	"taxiqueue/internal/mdt"
)

func TestExtractAllParallelMatchesSequential(t *testing.T) {
	day := simDay(t)
	byTaxi := mdt.SplitByTaxi(day.cleaned)
	seq := ExtractAll(byTaxi, DefaultSpeedThresholdKmh)
	for _, workers := range []int{0, 2, 4, 7} {
		par := ExtractAllParallel(byTaxi, DefaultSpeedThresholdKmh, workers)
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d pickups, sequential %d", workers, len(par), len(seq))
		}
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("workers=%d: pickup %d differs", workers, i)
			}
		}
	}
}

// TestExtractAllParallelSmallInputTakesSerialPath: a fleet of many taxis
// with tiny trajectories clears the 2*workers taxi-count gate but not the
// work threshold — the serial fallback must still produce the sequential
// result exactly (and, per the threshold's purpose, without the fan-out;
// correctness is what is asserted here).
func TestExtractAllParallelSmallInputTakesSerialPath(t *testing.T) {
	day := simDay(t)
	byTaxi := mdt.SplitByTaxi(day.cleaned)
	small := make(map[string]mdt.Trajectory, len(byTaxi))
	total := 0
	for id, tr := range byTaxi {
		if len(tr) > 8 {
			tr = tr[:8]
		}
		small[id] = tr
		total += len(tr)
	}
	if total >= peaSerialWork {
		t.Skipf("fixture too large to stay under the work threshold: %d records", total)
	}
	seq := ExtractAll(small, DefaultSpeedThresholdKmh)
	par := ExtractAllParallel(small, DefaultSpeedThresholdKmh, 8)
	if len(par) != len(seq) {
		t.Fatalf("below-threshold input: %d pickups, sequential %d", len(par), len(seq))
	}
	for i := range seq {
		if par[i] != seq[i] {
			t.Fatalf("below-threshold input: pickup %d differs", i)
		}
	}
}

func TestEngineParallelMatchesSequential(t *testing.T) {
	day := simDay(t)
	mk := func(workers int) *Result {
		cfg := DefaultEngineConfig()
		cfg.Detector.Cluster.MinPoints = 30
		cfg.Parallelism = workers
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Analyze(day.cleaned)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := mk(1)
	par := mk(0)
	if len(seq.Spots) != len(par.Spots) {
		t.Fatalf("spot counts differ: %d vs %d", len(seq.Spots), len(par.Spots))
	}
	for i := range seq.Spots {
		if seq.Spots[i].Spot != par.Spots[i].Spot {
			t.Fatalf("spot %d differs", i)
		}
		if seq.Spots[i].Thresholds != par.Spots[i].Thresholds {
			t.Fatalf("spot %d thresholds differ", i)
		}
		for j := range seq.Spots[i].Labels {
			if seq.Spots[i].Labels[j] != par.Spots[i].Labels[j] {
				t.Fatalf("spot %d slot %d label differs", i, j)
			}
		}
	}
}
