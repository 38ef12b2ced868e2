package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"taxiqueue/internal/core"
	"taxiqueue/internal/history"
)

// servedSpec is one workload against a running queued: `queued -scale
// 0.25 -minpts 25` (a few dozen spots), read at a fixed open-loop rate.
type servedSpec struct {
	live    bool    // -live -shards 2 -wal -history; else batch mode with -history
	rate    float64 // reads per second
	mix     []weight
	prefill bool // live: POST the bootstrap day and flush before the window
	surge   int  // live: during the window, feed a day with this many times the fleet
	days    int  // batch: history days recorded before queued starts
}

// readMix is rider and driver polling.
var readMix = []weight{{epSpots, 4}, {epContext, 3}, {epRecommend, 2}, {epForecast, 1}, {epEstimate, 1}}

var (
	// read_steady: polling with no writes. Every slot is final before the
	// window, so the HTTP edge, the render cache, recommend and forecast do
	// the work while ingest, the WAL and history stay idle.
	readSteady = servedSpec{live: true, rate: 1000, mix: readMix, prefill: true}
	// feed_mixed: the same reads beside a 3x-fleet day fed in event-time
	// order at feedSpeedup: WAL group commit, snapshot churn, cache
	// invalidation and pre-warm, history appends and forecast folds.
	feedMixed = servedSpec{live: true, rate: 1000, mix: readMix, surge: 3}
	// analytics: a dashboard over 28 recorded days, more blocks than the
	// history store's decoded-block LRU holds: history decode, summaries
	// and the LRU do the work; ingest and the render cache do none.
	analytics = servedSpec{
		rate: 150, days: 28,
		mix: []weight{{epHistory, 4}, {epHeatmapRange, 3}, {epHeatmap, 1}, {epTransitions, 2}},
	}
)

const (
	// batchSize is the records per /ingest POST.
	batchSize = 500
	// feedSpeedup is how much faster than the wall clock feed_mixed
	// replays event time: a whole day in 30 s. It does not depend on the
	// window; a window shorter than 30 s feeds the day from midnight to
	// where the window ends, so every window length sees the same rate.
	feedSpeedup = 2880
	// maxLateP99 is the generator lateness, in ms, above which a run is
	// flagged: the generator, not the server, would then set the latencies.
	maxLateP99 = 1.0
)

func served(spec servedSpec) func(context.Context, options, binaries) (*report, error) {
	return func(ctx context.Context, o options, bins binaries) (*report, error) {
		return runServed(ctx, o, bins, spec)
	}
}

func runServed(ctx context.Context, o options, bins binaries, spec servedSpec) (*report, error) {
	dir, err := runDir(o)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rep := newReport()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	// Inputs. queued simulates and analyzes the same bootstrap day at
	// start-up; the replica needs its result too. The requests and the
	// feed day come from the workload seed.
	city, day := bootDay()
	res, cst, err := analyze(day, bootEngineConfig(), tr, 0)
	if err != nil {
		return nil, err
	}
	grid := res.Config.Grid
	var prefill, feed feedPlan
	if spec.prefill {
		prefill = planFeed(day, batchSize, grid, 0)
	}
	if spec.surge > 0 {
		end := grid.Start.Add(time.Duration(feedSpeedup * float64(o.window)))
		recs := recordsBefore(surgeDay(o.seed, city, spec.surge), end)
		feed = planFeed(recs, batchSize, grid, feedSpeedup)
		logf("%s: feed of %d records in %d batches, %.0f records/s", o.workload,
			len(recs), len(feed.batches), float64(len(recs))/o.window.Seconds())
	}
	day = nil
	histDir, histCopy := filepath.Join(dir, "history"), filepath.Join(dir, "history-copy")
	if spec.days > 0 {
		if err := recordHistory(histDir, histCopy, res, spec.days); err != nil {
			return nil, err
		}
	}
	reads := planReads(rand.New(rand.NewSource(o.seed)), int(spec.rate*o.window.Seconds()),
		spec.rate, spec.mix, grid, len(res.Spots), max(spec.days, 1))

	// The inputs are built: this process's collector and scavenger must not
	// share the cores with queued's start-ups.
	debug.FreeOSMemory()
	srv, setups, err := setUp(ctx, bins.queued, spec, dir, histDir)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	rep.e2e["setup_s"] = median(setups)
	conns := min(2, runtime.NumCPU())
	c := newClient(srv.base, conns)
	defer c.close()
	// The peak RSS reported is the workload's own, from here to the end of
	// the window: its writes (read_steady's prefill, feed_mixed's feed) and
	// reads, not the bootstrap analysis every served workload shares. Over
	// read_steady's window alone it would be the resident set the reads
	// start from, which the collector's phase at the end of the prefill
	// moves by up to 20 %.
	if err := resetPeak(srv.pid()); err != nil {
		return nil, err
	}
	if spec.prefill {
		for _, b := range prefill.batches {
			if !c.postBatch(b) {
				return nil, fmt.Errorf("prefill: /ingest refused a batch")
			}
		}
		if !c.post("/ingest/flush", "", nil) {
			return nil, fmt.Errorf("prefill: /ingest/flush failed")
		}
	}

	runtime.GC()
	w, err := runWindow(ctx, c, srv.pid(), reads, feed, grid)
	if err != nil {
		return nil, err
	}
	lats := make([]float64, len(w.reads))
	for i, s := range w.reads {
		lats[i] = s.lat
	}
	for _, s := range append(append([]sample(nil), w.reads...), w.feed...) {
		rep.attempted++
		if s.lat == inf {
			rep.failed++
		}
	}
	// A late generator makes the latencies its own, but the system's
	// outputs are still what "correct" judges: the run is flagged, not failed.
	late := lateness(w.reads, w.feed)
	if err := checkLate(late); err != nil {
		logf("%s: warning: %v", o.workload, err)
	}
	serverCPU := w.server[1].CPU - w.server[0].CPU
	rep.layer["latency_p50_ms"] = median(lats)
	rep.layer["cpu_ms_per_op"] = ms(serverCPU) / float64(max(rep.attempted, 1))
	rep.e2e["peak_rss_mb"] = float64(w.server[1].HWM) / (1 << 20)
	logf("%s: %d ops (%d failed) in %.1fs, p50 %.3fms p99 %.3fms, server cpu %.0f%%, generator late p99 %.3fms",
		o.workload, rep.attempted, rep.failed, w.wall.Seconds(), median(lats), quantile(lats, 0.99),
		100*serverCPU.Seconds()/w.wall.Seconds(), quantile(late, 0.99))
	if spec.surge > 0 && !c.post("/ingest/flush", "", nil) {
		return nil, fmt.Errorf("/ingest/flush failed after the feed")
	}
	if o.trace {
		l := rep.layer
		layerClient(l, reads, w.reads, w.feed, late, w.prober, conns)
		layerServer(l, delta(w.metrics[0], w.metrics[1]), w.server[0], w.server[1], w.wall)
		l["gen.cpu_pct"] = 100 * (w.gen[1].CPU - w.gen[0].CPU).Seconds() / w.wall.Seconds()
		layerPipeline(l, tr.summarize(), cst, res) // the bootstrap queued repeats at every start
	}

	// Correctness against an in-process replica of queued; with -trace 1
	// the replica first replays the window's operations as the traced copy.
	var ref *replica
	if spec.live {
		t := tr
		if spec.prefill {
			t = nil // the prefill is set-up, not part of the traced copy
		}
		ref, err = newReplica(res, filepath.Join(dir, "replica-history"), true, t)
	} else {
		ref, err = newReplica(res, histCopy, false, tr)
	}
	if err != nil {
		return nil, err
	}
	defer ref.close()
	if spec.prefill {
		if err := ref.feed(prefill.batches); err != nil {
			return nil, err
		}
	}
	if o.trace {
		err = traceCopy(rep, o, ref, reads, feed, tr)
	} else if spec.surge > 0 {
		err = ref.feed(feed.batches)
	}
	if err != nil {
		return nil, err
	}
	if spec.live {
		rep.check(checkContexts(c, ref))
	} else {
		rep.check(checkRanges(c, ref.hist, reads))
	}
	return rep, nil
}

// recordHistory fills dir with days copies of res, as queued's batch mode
// would record them, and copies the store to cp for the checks. queued
// recomputes the same result at start-up; a different one would fail the
// store's configuration stamp and stop it.
func recordHistory(dir, cp string, res *core.Result, days int) error {
	h, err := openHistory(dir, res)
	if err != nil {
		return err
	}
	for d := 0; d < days; d++ {
		if err := h.BackfillResult(d, res); err != nil {
			h.Close()
			return err
		}
	}
	if err := h.Close(); err != nil {
		return err
	}
	return copyDir(dir, cp)
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// setUp starts queued three times on fresh state and keeps the last,
// returning each start's set-up time.
func setUp(ctx context.Context, bin string, spec servedSpec, dir, histDir string) (*server, []float64, error) {
	args := []string{"-seed", strconv.Itoa(citySeed), "-scale", fmt.Sprint(queuedScale), "-minpts", strconv.Itoa(queuedMinPts)}
	if spec.live {
		args = append(args, "-live", "-shards", strconv.Itoa(queuedShards))
	}
	var setups []float64
	for i := 0; ; i++ {
		a := append([]string(nil), args...)
		if spec.live {
			a = append(a, "-wal", filepath.Join(dir, fmt.Sprint("wal-", i)), "-history", filepath.Join(dir, fmt.Sprint("history-", i)))
		} else {
			a = append(a, "-history", histDir)
		}
		s, took, err := startServer(ctx, bin, a, filepath.Join(dir, fmt.Sprintf("queued-%d.log", i)))
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, took.Seconds())
		if i == 2 {
			return s, setups, nil
		}
		s.stop()
	}
}

// window is what the timed window measured: the samples, and the server's
// and the generator's /proc readings and the server's /metrics scrapes at
// its start and end.
type window struct {
	reads, feed []sample
	prober      *prober // nil without a feed
	server, gen [2]procSample
	metrics     [2]scrape
	wall        time.Duration
}

// runWindow drives the reads, and the feed with its freshness prober when
// there is one, from now until both schedules are done.
func runWindow(ctx context.Context, c *client, pid int, reads []read, feed feedPlan, grid core.SlotGrid) (*window, error) {
	w := &window{}
	sampleAll := func(i int) error {
		var err error
		if w.metrics[i], err = fetchProm(c.http, c.base+"/metrics"); err != nil {
			return err
		}
		if w.server[i], err = readProc(pid); err != nil {
			return err
		}
		w.gen[i], err = readProc(os.Getpid())
		return err
	}
	if err := sampleAll(0); err != nil {
		return nil, err
	}
	start := time.Now()
	readSched := schedule{
		n:   len(reads),
		due: func(i int) time.Duration { return reads[i].due },
		do:  func(i int) bool { return c.fetch(reads[i].path()) },
	}
	var wg sync.WaitGroup
	if len(feed.batches) > 0 {
		w.prober = newProber(c, grid, feed, start)
		readSched.idle = w.prober.idle
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.feed = schedule{
				n:   len(feed.batches),
				due: func(i int) time.Duration { return feed.batches[i].due },
				do:  func(i int) bool { return c.postBatch(feed.batches[i]) },
			}.run(ctx, start)
		}()
	}
	w.reads = readSched.run(ctx, start)
	wg.Wait()
	if w.prober != nil {
		w.prober.drain(ctx, time.Now().Add(2*time.Second))
	}
	w.wall = time.Since(start)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return w, sampleAll(1)
}

// traceCopy replays the window's reads and feed on the replica with spans
// on, flushes the feed, and derives the copy's per-layer metrics.
func traceCopy(rep *report, o options, ref *replica, reads []read, feed feedPlan, tr *tracer) error {
	plain, traced, accepted, err := ref.replay(reads, feed.batches, tr)
	if err == nil && len(feed.batches) > 0 {
		err = ref.svc.Flush()
	}
	if err != nil {
		return err
	}
	layerCopy(rep.layer, tr.summarize(), ref, feed, accepted)
	rep.layer["trace.overhead_pct"] = 100 * (traced - plain).Seconds() / plain.Seconds()
	rep.layer["trace.spans"] = float64(tr.count())
	return tr.writeJSONL(o.tracePath())
}

// checkContexts compares every slot's /context with the replica: after
// the flush every cell must be final with the replica's label.
func checkContexts(c *client, ref *replica) error {
	grid := ref.res.Config.Grid
	snap := ref.svc.Snapshot()
	for k := 0; k < grid.Slots; k++ {
		from, _ := grid.Bounds(k)
		var cells []struct {
			Spot    int    `json:"spot"`
			Context string `json:"context"`
			Final   bool   `json:"final"`
		}
		if err := c.getJSON("/context?at="+queryTime(from.Add(grid.SlotLen/2)), &cells); err != nil {
			return err
		}
		if len(cells) != len(ref.res.Spots) {
			return fmt.Errorf("/context slot %d: %d cells, want %d", k, len(cells), len(ref.res.Spots))
		}
		for _, cell := range cells {
			_, lb, final := snap.Context(cell.Spot, k)
			if !cell.Final || !final || cell.Context != lb.String() {
				return fmt.Errorf("/context slot %d spot %d: %s final=%v, in-process service says %s final=%v",
					k, cell.Spot, cell.Context, cell.Final, lb, final)
			}
		}
	}
	return nil
}

// checkRanges compares the range-form /heatmap answers for the run's
// first 50 heatmap_range requests with RangeSummary over a copy of the
// store queued opened.
func checkRanges(c *client, h *history.Store, reads []read) error {
	checked := 0
	for _, q := range reads {
		if q.ep != epHeatmapRange || checked == 50 {
			continue
		}
		checked++
		var got history.RangeSummary
		if err := c.getJSON(q.path(), &got); err != nil {
			return err
		}
		want, ok := h.RangeSummary(q.from, q.to)
		if !ok {
			return fmt.Errorf("%s: empty range in process", q.path())
		}
		if got.Days != want.Days || got.Slots != want.Slots || got.Cells != want.Cells ||
			got.Stored != want.Stored || got.Empty != want.Empty || got.Labels != want.Labels ||
			got.WaitSum != want.WaitSum || got.ArrSum != want.ArrSum ||
			got.QLenSum != want.QLenSum || got.DepSum != want.DepSum {
			return fmt.Errorf("%s: server %+v, in process %+v", q.path(), got, want)
		}
	}
	if checked == 0 {
		return fmt.Errorf("no heatmap_range request to check")
	}
	return nil
}
