package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/clean"
	"taxiqueue/internal/core"
	"taxiqueue/internal/mdt"
	"taxiqueue/internal/store"
)

// pipeline_day is the nightly batch: the paper's clean → PEA → DBSCAN →
// WTE → QCD with its own parameters (core.DefaultEngineConfig) over one
// raw full-scale day, in this process. No serving layer runs, so the
// paper's algorithms (clean, core, cluster) do all of the work.

// loadDay reads a store file into time-ordered records the way queuectl
// does: the batch job's set-up.
func loadDay(path string) ([]mdt.Record, error) {
	st, err := store.LoadFile(path)
	if err != nil {
		return nil, err
	}
	recs := make([]mdt.Record, 0, st.Len())
	st.Scan(time.Time{}, time.Unix(1<<40, 0), func(r mdt.Record) bool {
		recs = append(recs, r)
		return true
	})
	return recs, nil
}

func runPipelineDay(ctx context.Context, o options, bins binaries) (*report, error) {
	dir, err := runDir(o)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// The day is simulated by mdtgen in its own process, so this
	// process's peak RSS is the batch job's alone: the full-scale city of
	// record, with the simulation drawn from the workload seed.
	cityPath, path := filepath.Join(dir, "city.json"), filepath.Join(dir, "day.tqs")
	if err := saveCity(cityPath, citymap.Generate(citySeed, 1)); err != nil {
		return nil, err
	}
	gen := exec.CommandContext(ctx, bins.mdtgen, "-city", cityPath, "-seed", strconv.FormatInt(o.seed, 10), "-format", "store", "-o", path)
	gen.Stderr = os.Stderr
	if err := gen.Run(); err != nil {
		return nil, fmt.Errorf("mdtgen: %w", err)
	}

	rep := newReport()
	var raw []mdt.Record
	var setups []float64
	for i := 0; i < 3; i++ {
		raw = nil
		runtime.GC()
		t0 := time.Now()
		if raw, err = loadDay(path); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	logf("pipeline_day: %d raw records, set-up %.3fs", len(raw), median(setups))

	// The warm-up day runs the stage-by-stage copy, which must reproduce
	// Engine.Analyze exactly: the first timed day is checked against it,
	// and every later day must repeat its counts.
	cfg := core.DefaultEngineConfig()
	ref, _, err := analyzeStages(raw, cfg, nil, 0)
	if err != nil {
		return nil, err
	}
	runtime.GC()

	self := os.Getpid()
	p0, err := readProc(self)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	// With -trace 1 every other day runs the traced stage-by-stage copy,
	// so traced and untraced days see the same machine.
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	// The peak resident set is taken per day and the median reported: one
	// peak over the window would be the day whose collections fell worst.
	var days, traced, peaks []float64
	var cst clean.Stats
	start := time.Now()
	for i := 0; time.Since(start) < o.window || len(days) < 3; i++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if err := resetPeak(self); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var res *core.Result
		if o.trace && i%2 == 1 {
			res, cst, err = analyzeStages(raw, cfg, tr, int64(i))
		} else {
			res, _, err = analyze(raw, cfg, nil, 0)
		}
		took := ms(time.Since(t0))
		p, perr := readProc(self)
		if perr != nil {
			return nil, perr
		}
		peaks = append(peaks, float64(p.HWM)/(1<<20))
		rep.attempted++
		if err != nil {
			rep.failed++
			days = append(days, inf)
			continue
		}
		if o.trace && i%2 == 1 {
			traced = append(traced, took)
		} else {
			days = append(days, took)
		}
		if i == 0 {
			rep.check(wrapErr("stage-by-stage copy vs Engine.Analyze", sameAnalysis(ref, res)))
		} else if len(res.Pickups) != len(ref.Pickups) || len(res.Spots) != len(ref.Spots) || waitCount(res) != waitCount(ref) {
			rep.check(fmt.Errorf("day %d: pickups/spots/waits %d/%d/%d differ from the warm-up's %d/%d/%d",
				i+1, len(res.Pickups), len(res.Spots), waitCount(res), len(ref.Pickups), len(ref.Spots), waitCount(ref)))
		}
	}
	runtime.ReadMemStats(&m1)
	p1, err := readProc(self)
	if err != nil {
		return nil, err
	}
	n := float64(len(days) + len(traced))
	rep.e2e["setup_s"] = median(setups)
	rep.layer["latency_p50_ms"] = median(days)
	rep.layer["cpu_ms_per_op"] = ms(p1.CPU-p0.CPU) / n
	rep.e2e["peak_rss_mb"] = median(peaks)
	logf("pipeline_day: %d days, p50 %.1fms, peak RSS per day %.0f-%.0f MB", len(days), median(days), quantile(peaks, 0), quantile(peaks, 1))
	if o.trace {
		layerPipeline(rep.layer, tr.summarize(), cst, ref)
		rep.layer["core.alloc_mb_per_day"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / n
		rep.layer["trace.overhead_pct"] = 100 * (median(traced) - median(days)) / median(days)
		rep.layer["trace.spans"] = float64(tr.count())
		if err := tr.writeJSONL(o.tracePath()); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// saveCity writes the landmark registry mdtgen -city loads.
func saveCity(path string, city *citymap.Map) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := city.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runDir makes a fresh per-run scratch directory under the work dir.
func runDir(o options) (string, error) {
	dir := filepath.Join(o.work, "run", fmt.Sprintf("%s-%d", o.workload, o.seed))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// wrapErr prefixes a failed check with what was checked.
func wrapErr(what string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", what, err)
}
