package history

import (
	"math/rand"
	"testing"
	"time"

	"taxiqueue/internal/core"
)

// benchDay pre-generates one day of pipeline-shaped cells for nspots
// spots at the given density.
func benchDay(nspots int, density float64, seed int64) (Config, map[[2]int]Record) {
	cfg := testConfig(nspots)
	rng := rand.New(rand.NewSource(seed))
	slotSec := cfg.Grid.SlotLen.Seconds()
	cells := make(map[[2]int]Record)
	for slot := 0; slot < cfg.Grid.Slots; slot++ {
		for spot := 0; spot < nspots; spot++ {
			if rng.Float64() < density {
				f, l := randFeats(rng, core.PaperAmplification, slotSec)
				cells[[2]int{spot, slot}] = Record{Slot: slot, Spot: spot, Label: l, Feats: f}
			}
		}
	}
	return cfg, cells
}

// BenchmarkHistoryAppend measures the live-path ingestion seam: one
// AppendSlots watermark advance of a full day across 50 spots, encode and
// seal included (no disk).
func BenchmarkHistoryAppend(b *testing.B) {
	cfg, cells := benchDay(50, 0.4, 1)
	at := func(spot, slot int) (core.SlotFeatures, core.QueueType) {
		if r, ok := cells[[2]int{spot, slot}]; ok {
			return r.Feats, r.Label
		}
		return core.SlotFeatures{}, core.Unidentified
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.AppendSlots(0, 0, cfg.Grid.Slots, at); err != nil {
			b.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(cells)), "cells/op")
}

// benchStore loads days full days into a store for the read benchmarks.
func benchStore(b *testing.B, nspots, days int) *Store {
	b.Helper()
	cfg, cells := benchDay(nspots, 0.4, 2)
	s, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for d := 0; d < days; d++ {
		day := d
		err := s.AppendSlots(day, 0, cfg.Grid.Slots, func(spot, slot int) (core.SlotFeatures, core.QueueType) {
			if r, ok := cells[[2]int{spot, slot}]; ok {
				return r.Feats, r.Label
			}
			return core.SlotFeatures{}, core.Unidentified
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkHistoryRange measures one /history-shaped scan: a random
// 12-hour window of one spot's series out of a week of 50 spots.
func BenchmarkHistoryRange(b *testing.B) {
	s := benchStore(b, 50, 7)
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spot := rng.Intn(s.Spots())
		day := rng.Intn(7)
		lo := rng.Intn(24)
		from := s.TimeOf(day, lo)
		pts := s.Series(spot, from, from.Add(12*time.Hour))
		if len(pts) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkHistoryHeatmap measures one /heatmap-shaped aggregation: all
// 50 spots tiled at a random recorded slot.
func BenchmarkHistoryHeatmap(b *testing.B) {
	s := benchStore(b, 50, 7)
	rng := rand.New(rand.NewSource(4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := s.TimeOf(rng.Intn(7), rng.Intn(s.Grid().Slots))
		if _, ok := s.Heatmap(at); !ok {
			b.Fatal("heatmap miss on a recorded slot")
		}
	}
}

// benchDir writes gens log files of days full days each (one per
// process lifetime) and returns the config to reopen them — the
// dashboard-shaped fixture for the range and cold-open benchmarks.
func benchDir(b *testing.B, nspots, days, gens int) Config {
	b.Helper()
	cfg, cells := benchDay(nspots, 0.4, 2)
	cfg.Dir = b.TempDir()
	at := func(spot, slot int) (core.SlotFeatures, core.QueueType) {
		if r, ok := cells[[2]int{spot, slot}]; ok {
			return r.Feats, r.Label
		}
		return core.SlotFeatures{}, core.Unidentified
	}
	for g := 0; g < gens; g++ {
		s, err := Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for d := g * days; d < (g+1)*days; d++ {
			if err := s.AppendSlots(d, 0, cfg.Grid.Slots, at); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
	return cfg
}

// benchReopen opens the fixture directory (lazily unless cfg says
// otherwise) for the range benchmarks.
func benchReopen(b *testing.B, cfg Config) *Store {
	b.Helper()
	s, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

// BenchmarkHistoryHeatmapRange measures the /heatmap?from&to fast path:
// a random dashboard-shaped week ("day d through d+7") aggregated
// city-wide over a month of 50 spots, served from block summaries without
// materializing a single disk-resident block.
func BenchmarkHistoryHeatmapRange(b *testing.B) {
	s := benchReopen(b, benchDir(b, 50, 6, 5))
	rng := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := s.TimeOf(rng.Intn(20), 0)
		if _, ok := s.RangeSummary(from, from.Add(7*24*time.Hour)); !ok {
			b.Fatal("range miss")
		}
	}
}

// BenchmarkHistoryHeatmapRangeDecode is the decode-everything baseline
// BenchmarkHistoryHeatmapRange is judged against: the identical aggregate
// with the summary fast path disabled, so every overlapping block
// materializes and folds record by record.
func BenchmarkHistoryHeatmapRangeDecode(b *testing.B) {
	s := benchReopen(b, benchDir(b, 50, 6, 5))
	rng := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := s.TimeOf(rng.Intn(20), 0)
		if _, ok := s.rangeSummary(from, from.Add(7*24*time.Hour), true); !ok {
			b.Fatal("range miss")
		}
	}
}

// BenchmarkHistorySeriesWide measures a wide /history span: one spot's
// full month of slots decoded through the block cache.
func BenchmarkHistorySeriesWide(b *testing.B) {
	s := benchReopen(b, benchDir(b, 50, 6, 5))
	from := s.Grid().Start
	to := from.Add(30 * 24 * time.Hour)
	rng := rand.New(rand.NewSource(6))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pts := s.Series(rng.Intn(s.Spots()), from, to); len(pts) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkHistoryOpenCold measures a cold lazy Open over a
// multi-file month: every frame CRC-checked, only summaries
// decoded.
func BenchmarkHistoryOpenCold(b *testing.B) {
	cfg := benchDir(b, 50, 6, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHistoryOpenColdEager is the pre-lazy baseline: the same open
// with every block decoded to records up front.
func BenchmarkHistoryOpenColdEager(b *testing.B) {
	cfg := benchDir(b, 50, 6, 5)
	cfg.EagerOpen = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
