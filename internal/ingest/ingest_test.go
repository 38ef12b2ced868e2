package ingest

import (
	"testing"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/clean"
	"taxiqueue/internal/cluster"
	"taxiqueue/internal/core"
	"taxiqueue/internal/mdt"
	"taxiqueue/internal/sim"
	"taxiqueue/internal/stream"
)

// day is the shared fixture: one small simulated day, batch-analyzed for
// spots and thresholds exactly like the deployed system's nightly run.
type day struct {
	raw     []mdt.Record // pre-clean, as a live feed would arrive
	cleaned []mdt.Record
	result  *core.Result
	grid    core.SlotGrid
	scfg    stream.Config
}

var cachedDay *day

func getDay(t testing.TB) *day {
	t.Helper()
	if cachedDay != nil {
		return cachedDay
	}
	out := sim.Run(sim.Config{Seed: 777, City: citymap.Generate(777, 0.1), InjectFaults: true})
	cleaned, _ := clean.Clean(out.Records, clean.Config{ValidFrame: citymap.Island})
	cfg := core.DefaultEngineConfig()
	cfg.Detector.Cluster = cluster.Params{EpsMeters: 15, MinPoints: 25}
	cfg.Grid = core.DaySlots(out.Config.Start)
	engine, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Analyze(cleaned)
	if err != nil {
		t.Fatal(err)
	}
	spots := make([]core.QueueSpot, len(res.Spots))
	ths := make([]core.Thresholds, len(res.Spots))
	for i := range res.Spots {
		spots[i] = res.Spots[i].Spot
		ths[i] = res.Spots[i].Thresholds
	}
	cachedDay = &day{
		raw: out.Records, cleaned: cleaned, result: res, grid: cfg.Grid,
		scfg: stream.Config{
			Spots: spots, Thresholds: ths, Grid: cfg.Grid,
			Amplify: core.PaperAmplification,
		},
	}
	return cachedDay
}

func (d *day) serviceConfig() Config {
	return Config{
		Stream: d.scfg,
		Clean:  clean.Config{ValidFrame: citymap.Island},
	}
}

// snapshot pulls every final (spot, slot) context out of a service.
func snapshot(t testing.TB, svc *Service, d *day) ([][]core.QueueType, [][]core.SlotFeatures) {
	t.Helper()
	labels := make([][]core.QueueType, len(d.scfg.Spots))
	feats := make([][]core.SlotFeatures, len(d.scfg.Spots))
	for i := range labels {
		labels[i] = make([]core.QueueType, d.grid.Slots)
		feats[i] = make([]core.SlotFeatures, d.grid.Slots)
		for j := 0; j < d.grid.Slots; j++ {
			f, l, ok := svc.Snapshot().Context(i, j)
			if !ok {
				t.Fatalf("spot %d slot %d not final", i, j)
			}
			labels[i][j] = l
			feats[i][j] = f
		}
	}
	return labels, feats
}

// singleEngineContexts runs one stream.Live over the feed via a 1-shard
// service pipeline-free path: cleaner + engine + the same empty-slot
// classification the aggregator applies.
func singleEngineContexts(d *day) ([][]core.QueueType, [][]core.SlotFeatures) {
	cl := clean.NewStreamer(clean.Config{ValidFrame: citymap.Island})
	eng := stream.NewLive(d.scfg)
	stats := make(map[cellKey]*core.SlotStats)
	collect := func(events []stream.Event) {
		for i := range events {
			ev := &events[i]
			if ev.Kind != stream.SlotClosed {
				continue
			}
			k := cellKey{ev.Spot, ev.Slot}
			if stats[k] == nil {
				stats[k] = &core.SlotStats{}
			}
			stats[k].Merge(&ev.Stats)
		}
	}
	for _, r := range d.raw {
		for _, surv := range cl.Push(r) {
			collect(eng.Ingest(surv))
		}
	}
	for _, surv := range cl.Flush() {
		collect(eng.Ingest(surv))
	}
	collect(eng.Flush())
	labels := make([][]core.QueueType, len(d.scfg.Spots))
	feats := make([][]core.SlotFeatures, len(d.scfg.Spots))
	for i := range labels {
		labels[i] = make([]core.QueueType, d.grid.Slots)
		feats[i] = make([]core.SlotFeatures, d.grid.Slots)
		for j := 0; j < d.grid.Slots; j++ {
			var s core.SlotStats
			if p := stats[cellKey{i, j}]; p != nil {
				s = *p
			}
			f := s.Features(d.grid.SlotLen, d.scfg.Amplify)
			feats[i][j] = f
			labels[i][j] = core.ClassifyCell(f, d.scfg.Thresholds[i])
		}
	}
	return labels, feats
}

// feed pushes records through Accept in mdtgen-sized batches.
func feed(t testing.TB, svc *Service, recs []mdt.Record) {
	t.Helper()
	for len(recs) > 0 {
		n := 500
		if n > len(recs) {
			n = len(recs)
		}
		if _, err := svc.Accept(recs[:n]); err != nil {
			t.Fatal(err)
		}
		recs = recs[n:]
	}
}

func runService(t testing.TB, cfg Config, recs []mdt.Record) *Service {
	t.Helper()
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, svc, recs)
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	return svc
}

func sameContexts(t *testing.T, what string,
	la [][]core.QueueType, fa [][]core.SlotFeatures,
	lb [][]core.QueueType, fb [][]core.SlotFeatures) {
	t.Helper()
	for i := range la {
		for j := range la[i] {
			if la[i][j] != lb[i][j] {
				t.Errorf("%s: spot %d slot %d label %v vs %v", what, i, j, la[i][j], lb[i][j])
			}
			if fa[i][j] != fb[i][j] {
				t.Errorf("%s: spot %d slot %d features differ:\n  %+v\n  %+v", what, i, j, fa[i][j], fb[i][j])
			}
		}
	}
}

// TestShardedMatchesSingleEngine: the sharded service (any shard count)
// must serve contexts byte-identical to one stream engine that saw every
// record — the SlotStats merge is exact.
func TestShardedMatchesSingleEngine(t *testing.T) {
	d := getDay(t)
	wantL, wantF := singleEngineContexts(d)
	for _, shards := range []int{1, 3, 8} {
		cfg := d.serviceConfig()
		cfg.Shards = shards
		svc := runService(t, cfg, d.raw)
		gotL, gotF := snapshot(t, svc, d)
		sameContexts(t, sprint("shards=", shards), gotL, gotF, wantL, wantF)
		st := svc.Stats()
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		if st.Accepted != int64(len(d.cleaned)) {
			t.Fatalf("shards=%d: accepted %d, cleaned %d", shards, st.Accepted, len(d.cleaned))
		}
	}
}

func sprint(a string, b int) string { return a + string(rune('0'+b)) }

// TestShardedLabelsNearBatch: the live sharded view must agree with the
// batch engine on the vast majority of active slots (the same ≤10% bound
// the single-engine stream test uses: the live path attributes cross-slot
// waits slightly differently).
func TestShardedLabelsNearBatch(t *testing.T) {
	d := getDay(t)
	cfg := d.serviceConfig()
	cfg.Shards = 4
	svc := runService(t, cfg, d.raw)
	defer svc.Close()
	gotL, _ := snapshot(t, svc, d)
	checked, mismatches := 0, 0
	for i := range d.result.Spots {
		for j, batchLabel := range d.result.Spots[i].Labels {
			if batchLabel == core.Unidentified && gotL[i][j] == core.Unidentified {
				continue
			}
			checked++
			if gotL[i][j] != batchLabel {
				mismatches++
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d active slots compared", checked)
	}
	if rate := float64(mismatches) / float64(checked); rate > 0.10 {
		t.Fatalf("live/batch mismatch rate %.3f over %d slots", rate, checked)
	}
}

// TestCleanFeedZeroRejected: a pre-cleaned feed sails through with nothing
// rejected.
func TestCleanFeedZeroRejected(t *testing.T) {
	d := getDay(t)
	cfg := d.serviceConfig()
	cfg.Shards = 4
	svc := runService(t, cfg, d.cleaned)
	defer svc.Close()
	st := svc.Stats()
	if st.Rejected != 0 || st.BadRecords != 0 {
		t.Fatalf("clean feed: rejected=%d bad=%d", st.Rejected, st.BadRecords)
	}
	if st.Accepted != int64(len(d.cleaned)) {
		t.Fatalf("accepted %d of %d", st.Accepted, len(d.cleaned))
	}
	if st.FinalBelow != d.grid.Slots {
		t.Fatalf("final below %d, want %d", st.FinalBelow, d.grid.Slots)
	}
}

// TestFaultyFeedRejectsExactlyCleanRemovals: the streaming validation must
// reject exactly what the batch cleaner would remove.
func TestFaultyFeedRejectsExactlyCleanRemovals(t *testing.T) {
	d := getDay(t)
	cfg := d.serviceConfig()
	cfg.Shards = 4
	svc := runService(t, cfg, d.raw)
	defer svc.Close()
	st := svc.Stats()
	wantRejected := int64(len(d.raw) - len(d.cleaned))
	if st.Rejected != wantRejected {
		t.Fatalf("rejected %d, batch clean removed %d", st.Rejected, wantRejected)
	}
}

// TestContextGating: before any feed reaches a slot's finality horizon the
// service refuses to serve it; FlushUntil advances the horizon without a
// record.
func TestContextGating(t *testing.T) {
	d := getDay(t)
	cfg := d.serviceConfig()
	cfg.Shards = 2
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if _, _, ok := svc.Snapshot().Context(0, 0); ok {
		t.Fatal("slot 0 served before any record")
	}
	if _, _, ok := svc.Snapshot().Context(-1, 0); ok {
		t.Fatal("negative spot served")
	}
	noon := d.grid.Start.Add(12 * time.Hour)
	if err := svc.FlushUntil(noon); err != nil {
		t.Fatal(err)
	}
	j := d.grid.Index(noon)
	if _, _, ok := svc.Snapshot().Context(0, j-2); !ok {
		t.Fatalf("slot %d not final after FlushUntil(noon)", j-2)
	}
	if _, _, ok := svc.Snapshot().Context(0, j); ok {
		t.Fatal("current slot served as final")
	}
}
