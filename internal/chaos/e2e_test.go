package chaos_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"taxiqueue/internal/chaos"
	"taxiqueue/internal/citymap"
	"taxiqueue/internal/clean"
	"taxiqueue/internal/cluster"
	"taxiqueue/internal/core"
	"taxiqueue/internal/feedclient"
	"taxiqueue/internal/ingest"
	"taxiqueue/internal/mdt"
	"taxiqueue/internal/sim"
	"taxiqueue/internal/stream"
)

// e2eDay is the shared fixture: one small simulated day, batch-analyzed
// for spots and thresholds like the deployed system's nightly run.
type e2eDay struct {
	raw  []mdt.Record
	grid core.SlotGrid
	scfg stream.Config
}

var cachedE2EDay *e2eDay

func getE2EDay(t *testing.T) *e2eDay {
	t.Helper()
	if cachedE2EDay != nil {
		return cachedE2EDay
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
	cachedE2EDay = &e2eDay{
		raw: out.Records, grid: cfg.Grid,
		scfg: stream.Config{Spots: spots, Thresholds: ths, Grid: cfg.Grid, Amplify: core.PaperAmplification},
	}
	return cachedE2EDay
}

func (d *e2eDay) serviceConfig() ingest.Config {
	return ingest.Config{
		Stream: d.scfg,
		Clean:  clean.Config{ValidFrame: citymap.Island},
		Shards: 3,
	}
}

// serve exposes svc on an httptest server with the queued route shape.
func serve(svc *ingest.Service) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", svc.HandleIngest)
	mux.HandleFunc("/ingest/flush", svc.HandleFlush)
	mux.HandleFunc("/ingest/stats", svc.HandleStats)
	return httptest.NewServer(mux)
}

// snapshotCtx pulls every final (spot, slot) context out of a service.
func snapshotCtx(t *testing.T, svc *ingest.Service, d *e2eDay) ([][]core.QueueType, [][]core.SlotFeatures) {
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

// TestChaosDayConvergesToFaultFreeLabels is the end-to-end resilience
// scenario of the whole harness: a simulated day streamed through a
// fault-injecting transport, a mid-day crash of the durable service with a
// WAL tail torn on top (the lying-disk crash signature), a restart over
// the damaged directory and a client that blindly re-sends its whole feed
// so far — and at the end of the day every served queue context must be
// byte-identical to a run where none of it ever happened.
func TestChaosDayConvergesToFaultFreeLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute fixture")
	}
	d := getE2EDay(t)
	k1, k2 := len(d.raw)/3, 2*len(d.raw)/3

	// Reference: the fault-free day over the same client/HTTP path.
	refSvc, err := ingest.NewService(d.serviceConfig())
	if err != nil {
		t.Fatal(err)
	}
	refSrv := serve(refSvc)
	refCl, err := feedclient.New(feedclient.Config{URL: refSrv.URL + "/ingest"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := refCl.Stream(ctx, d.raw); err != nil {
		t.Fatal(err)
	}
	if err := refCl.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	wantL, wantF := snapshotCtx(t, refSvc, d)
	refSrv.Close()
	if err := refSvc.Close(); err != nil {
		t.Fatal(err)
	}

	// The day under attack: durable service, flaky transport.
	walDir := t.TempDir()
	cfg := d.serviceConfig()
	cfg.WALDir = walDir
	svc, err := ingest.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve(svc)
	faults := chaos.New(chaos.Config{Seed: 2026, RefuseProb: 0.1, CutBodyProb: 0.1})
	faults.SetEnabled(false)
	cl, err := feedclient.New(feedclient.Config{
		URL: srv.URL + "/ingest", Seed: 4,
		BaseBackoff: time.Millisecond, MaxBackoff: 50 * time.Millisecond, MaxAttempts: 60,
		HTTPClient: &http.Client{Transport: faults.RoundTripper(nil)},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: a calm morning.
	if _, err := cl.Stream(ctx, d.raw[:k1]); err != nil {
		t.Fatal(err)
	}
	// Phase 2: the network degrades; the feed must still complete.
	faults.SetEnabled(true)
	rep, err := cl.Stream(ctx, d.raw[k1:k2])
	if err != nil {
		t.Fatalf("stream through chaos transport: %v", err)
	}
	faults.SetEnabled(false)
	if faults.Total() == 0 {
		t.Fatal("chaos phase injected nothing — the scenario tested nothing")
	}
	t.Logf("chaos phase: %d faults injected, %d client retries, %d backpressure rounds",
		faults.Total(), rep.Retries, rep.Backpressure)

	// Phase 3: the process dies mid-day (post-checkpoint records lost),
	// and the crash leaves shard 0's WAL with a torn tail.
	srv.Close()
	svc.Abort()
	if err := chaos.TearTail(ingest.WALPath(walDir, 0), 9); err != nil {
		t.Fatal(err)
	}

	// Phase 4: restart over the damaged directory — tolerant recovery.
	svc2, err := ingest.NewService(cfg)
	if err != nil {
		t.Fatalf("restart over torn WAL dir: %v", err)
	}
	defer svc2.Close()
	var truncs int64
	for _, sh := range svc2.Stats().Shards {
		truncs += sh.Truncations
	}
	if truncs == 0 {
		t.Fatal("restart did not register the torn WAL tail")
	}
	srv2 := serve(svc2)
	defer srv2.Close()
	cl2, err := feedclient.New(feedclient.Config{URL: srv2.URL + "/ingest"})
	if err != nil {
		t.Fatal(err)
	}
	// Phase 5: the client cannot know what survived the crash, so it
	// re-sends its whole day so far, then finishes the feed. The ordering
	// rule and dedup window absorb the overlap; the re-send restores both
	// the post-checkpoint records the crash lost and the torn-off tail.
	if _, err := cl2.Stream(ctx, d.raw[:k2]); err != nil {
		t.Fatal(err)
	}
	if _, err := cl2.Stream(ctx, d.raw[k2:]); err != nil {
		t.Fatal(err)
	}
	if err := cl2.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	gotL, gotF := snapshotCtx(t, svc2, d)
	diffs := 0
	for i := range wantL {
		for j := range wantL[i] {
			if gotL[i][j] != wantL[i][j] || gotF[i][j] != wantF[i][j] {
				if diffs < 5 {
					t.Errorf("spot %d slot %d: label %v/%v features\n  %+v\n  %+v",
						i, j, gotL[i][j], wantL[i][j], gotF[i][j], wantF[i][j])
				}
				diffs++
			}
		}
	}
	if diffs > 0 {
		t.Fatalf("%d contexts diverged from the fault-free day", diffs)
	}
}
