package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/clean"
	"taxiqueue/internal/cluster"
	"taxiqueue/internal/core"
	"taxiqueue/internal/history"
	"taxiqueue/internal/obs"
	"taxiqueue/internal/sim"
)

// analyzeDay batch-analyzes one simulated day, the way queued's startup
// pass does.
func analyzeDay(t *testing.T) *core.Result {
	t.Helper()
	out := sim.Run(sim.Config{Seed: 777, City: citymap.Generate(777, 0.1), InjectFaults: true})
	cfg := core.DefaultEngineConfig()
	cfg.Detector.Cluster = cluster.Params{EpsMeters: 15, MinPoints: 25}
	cfg.Grid = core.DaySlots(out.Config.Start)
	engine, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cleaned, _ := clean.Clean(out.Records, clean.Config{ValidFrame: citymap.Island})
	res, err := engine.Analyze(cleaned)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRecomputeMatchesCleanAnalyze: recompute, which cleans the simulated
// day in place, publishes exactly the result of Clean + Analyze over the
// same day, less the pickups and the per-spot waits it does not serve.
func TestRecomputeMatchesCleanAnalyze(t *testing.T) {
	srv := newServer(obs.NewRegistry())
	if err := srv.recompute(777, 0.1, 25); err != nil {
		t.Fatal(err)
	}
	got, want := srv.result(), analyzeDay(t)
	if len(got.Spots) == 0 {
		t.Fatal("the day has no spots to compare")
	}
	want.Pickups = nil
	for i := range want.Spots {
		want.Spots[i].Waits = nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recompute: %d spots; Clean + Analyze: %d spots, or a field differs", len(got.Spots), len(want.Spots))
	}
}

// TestRecomputePublishesOnlyWhatIsServed: the published result holds no
// pickups and no per-spot waits. Nothing in queued reads them, and
// keeping them would hold every pickup for as long as the view is
// served.
func TestRecomputePublishesOnlyWhatIsServed(t *testing.T) {
	srv := newServer(obs.NewRegistry())
	if err := srv.recompute(777, 0.1, 25); err != nil {
		t.Fatal(err)
	}
	res := srv.result()
	if len(res.Spots) == 0 {
		t.Fatal("the day has no spots")
	}
	if res.Pickups != nil {
		t.Fatalf("published result holds %d pickups", len(res.Pickups))
	}
	for i := range res.Spots {
		if res.Spots[i].Waits != nil {
			t.Fatalf("spot %d holds %d waits", i, len(res.Spots[i].Waits))
		}
	}
}

// historyFixture batch-analyzes one simulated day, backfills it into a
// history store, and mounts the analytics endpoints — the way
// `queued -history DIR` serves a nightly batch run.
func historyFixture(t *testing.T, backfill bool) (*httptest.Server, *history.Store, *core.Result) {
	t.Helper()
	res := analyzeDay(t)
	hist, err := newHistoryStore(t.TempDir(), res, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if backfill {
		if err := hist.BackfillResult(0, res); err != nil {
			t.Fatal(err)
		}
	}
	mux := http.NewServeMux()
	registerHistory(mux, &historyServer{hist: hist})
	ts := httptest.NewServer(mux)
	t.Cleanup(func() { ts.Close(); hist.Close() })
	return ts, hist, res
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("%s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestHistoryEndpoint(t *testing.T) {
	ts, hist, res := historyFixture(t, true)
	grid := hist.Grid()

	var out struct {
		Spot   int                `json:"spot"`
		Points []historyPointJSON `json:"points"`
	}
	if code := getJSON(t, ts.URL+"/history?spot=0", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if out.Spot != 0 || len(out.Points) != grid.Slots {
		t.Fatalf("spot %d with %d points, want 0 with %d", out.Spot, len(out.Points), grid.Slots)
	}
	for j, p := range out.Points {
		f, l := res.Cell(0, j)
		if p.Context != l.String() || p.QLen != f.QLen || p.TWaitS != f.TWait.Seconds() {
			t.Fatalf("slot %d: served (%s, qlen %.4f, twait %.1fs), batch (%s, %.4f, %.1fs)",
				j, p.Context, p.QLen, p.TWaitS, l.String(), f.QLen, f.TWait.Seconds())
		}
	}

	// A from/to window narrows the series.
	from := grid.Start.Add(5 * grid.SlotLen).UTC().Format(time.RFC3339)
	to := grid.Start.Add(9 * grid.SlotLen).UTC().Format(time.RFC3339)
	if code := getJSON(t, ts.URL+"/history?spot=1&from="+from+"&to="+to, &out); code != 200 {
		t.Fatalf("windowed status %d", code)
	}
	if len(out.Points) != 4 || out.Points[0].Slot != 5 {
		t.Fatalf("window served %d points starting at slot %d, want 4 from slot 5",
			len(out.Points), out.Points[0].Slot)
	}

	// Parameter validation.
	for _, bad := range []string{"/history", "/history?spot=-1", "/history?spot=9999", "/history?spot=x", "/history?spot=0&from=yesterday"} {
		var ignore json.RawMessage
		if code := getJSON(t, ts.URL+bad, &ignore); code != 400 {
			t.Errorf("%s: status %d, want 400", bad, code)
		}
	}
}

func TestHeatmapEndpoint(t *testing.T) {
	ts, hist, res := historyFixture(t, true)
	grid := hist.Grid()

	var hm history.Heatmap
	if code := getJSON(t, ts.URL+"/heatmap", &hm); code != 200 {
		t.Fatalf("latest heatmap status %d", code)
	}
	if hm.Slot != grid.Slots-1 || len(hm.Tiles) == 0 {
		t.Fatalf("latest heatmap at slot %d with %d tiles", hm.Slot, len(hm.Tiles))
	}
	at := grid.Start.Add(17*grid.SlotLen + grid.SlotLen/2).UTC().Format(time.RFC3339)
	if code := getJSON(t, ts.URL+"/heatmap?t="+at, &hm); code != 200 {
		t.Fatalf("heatmap status %d", code)
	}
	if hm.Day != 0 || hm.Slot != 17 {
		t.Fatalf("heatmap at (day %d, slot %d), want (0, 17)", hm.Day, hm.Slot)
	}
	total := 0
	for _, tile := range hm.Tiles {
		total += tile.Spots
	}
	if total != len(res.Spots) {
		t.Fatalf("tiles cover %d spots, want %d", total, len(res.Spots))
	}

	var ignore json.RawMessage
	if code := getJSON(t, ts.URL+"/heatmap?t=later", &ignore); code != 400 {
		t.Errorf("bad t: status %d, want 400", code)
	}
	// An out-of-grid t answers an empty-but-valid heatmap, not an error:
	// same schema, zero tiles, Tiles an array rather than null.
	before := grid.Start.Add(-time.Hour).UTC().Format(time.RFC3339)
	var raw struct {
		Day   int               `json:"day"`
		Slot  int               `json:"slot"`
		TileM float64           `json:"tile_m"`
		Tiles []json.RawMessage `json:"tiles"`
	}
	if code := getJSON(t, ts.URL+"/heatmap?t="+before, &raw); code != 200 {
		t.Fatalf("pre-grid t: status %d, want 200", code)
	}
	if raw.Day != -1 || raw.Slot != -1 || len(raw.Tiles) != 0 || raw.Tiles == nil || raw.TileM == 0 {
		t.Errorf("pre-grid heatmap not empty-but-valid: %+v", raw)
	}
}

func TestTransitionsEndpoint(t *testing.T) {
	ts, hist, _ := historyFixture(t, true)

	var out struct {
		Spot       int      `json:"spot"`
		Pairs      int      `json:"pairs"`
		Counts     [][]int  `json:"counts"`
		LabelNames []string `json:"label_names"`
	}
	if code := getJSON(t, ts.URL+"/transitions?spot=2", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if out.Spot != 2 || len(out.Counts) != 5 || len(out.LabelNames) != 5 {
		t.Fatalf("transitions shape: %+v", out)
	}
	// One recorded day: no consecutive-day pairs yet.
	if out.Pairs != 0 {
		t.Fatalf("%d pairs from a single day", out.Pairs)
	}
	_ = hist
}

// TestHistoryEndpointsEmptyStore: before anything is recorded /history
// serves an empty series, /heatmap has nothing to show.
func TestHistoryEndpointsEmptyStore(t *testing.T) {
	ts, _, _ := historyFixture(t, false)
	var out struct {
		Points []historyPointJSON `json:"points"`
	}
	if code := getJSON(t, ts.URL+"/history?spot=0", &out); code != 200 || len(out.Points) != 0 {
		t.Fatalf("empty store /history: status %d, %d points", code, len(out.Points))
	}
	var ignore json.RawMessage
	if code := getJSON(t, ts.URL+"/heatmap", &ignore); code != 503 {
		t.Fatalf("empty store /heatmap: status %d, want 503", code)
	}
}

// TestShutdownClosesBatchHistory: batch mode's history store, closed
// through the shutdown path both modes share, reopens with zero
// truncations and every appended slot — including an open tail that no
// Flush ever sealed.
func TestShutdownClosesBatchHistory(t *testing.T) {
	res := analyzeDay(t)
	dir := t.TempDir()
	hist, err := newHistoryStore(dir, res, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	fc, err := newForecastLearner(res, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	half := res.Config.Grid.Slots / 2
	if err := hist.AppendSlots(0, 0, half, res.Cell); err != nil {
		t.Fatal(err)
	}
	if err := shutdown(nil, hist, fc); err != nil {
		t.Fatal(err)
	}
	r, err := newHistoryStore(dir, res, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); st.Truncations != 0 {
		t.Fatalf("reopened with %d truncations", st.Truncations)
	}
	if w := r.Watermark(0); w != half {
		t.Fatalf("reopened watermark %d, want %d", w, half)
	}
	grid := r.Grid()
	for spot := range res.Spots {
		for _, p := range r.Series(spot, grid.Start, r.TimeOf(0, half)) {
			wantF, wantL := res.Cell(spot, p.Slot)
			if p.Feats != wantF || p.Label != wantL {
				t.Fatalf("spot %d slot %d: reopened (%v, %+v), batch (%v, %+v)",
					spot, p.Slot, p.Label, p.Feats, wantL, wantF)
			}
		}
	}
}
