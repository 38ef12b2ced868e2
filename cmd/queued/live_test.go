package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/clean"
	"taxiqueue/internal/cluster"
	"taxiqueue/internal/core"
	"taxiqueue/internal/ingest"
	"taxiqueue/internal/sim"
)

// liveFixture runs one simulated day through the batch engine and stands up
// the full live HTTP surface (mux + ingest service) around it, exactly the
// way `queued -live` does.
func liveFixture(t *testing.T) (*httptest.Server, *server, *ingest.Service, sim.Output, []func()) {
	return liveFixtureCfg(t, nil)
}

// liveFixtureCfg is liveFixture with a hook to adjust the ingest service
// configuration (e.g. enable live spot discovery) before it starts.
func liveFixtureCfg(t *testing.T, mod func(*ingest.Config)) (*httptest.Server, *server, *ingest.Service, sim.Output, []func()) {
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
	icfg := ingest.Config{
		Stream: liveStreamConfig(res),
		Clean:  clean.Config{ValidFrame: citymap.Island},
		Shards: 4,
	}
	if mod != nil {
		mod(&icfg)
	}
	svc, err := ingest.NewService(icfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(svc.Registry())
	srv.view.Store(newBatchView(out.Config.City, res))
	srv.svc = svc
	mux := http.NewServeMux()
	registerServe(mux, srv)
	registerOps(mux, srv, svc.Registry(), true)
	ts := httptest.NewServer(mux)
	return ts, srv, svc, out, []func(){ts.Close, func() { _ = svc.Close() }}
}

// TestLiveEndToEnd drives the whole live path over HTTP: POST the day's
// cleaned records to /ingest, flush, and check that /spots agrees with the
// batch labels (same ≤10% tolerance the stream engine is held to) with
// nothing rejected or dropped along the way.
func TestLiveEndToEnd(t *testing.T) {
	ts, srv, _, out, cleanup := liveFixture(t)
	for _, f := range cleanup {
		defer f()
	}
	cleaned, _ := clean.Clean(out.Records, clean.Config{ValidFrame: citymap.Island})

	// Feed in mdtgen-sized batches, alternating both wire encodings.
	for i := 0; len(cleaned) > 0; i++ {
		n := 500
		if n > len(cleaned) {
			n = len(cleaned)
		}
		batch := cleaned[:n]
		cleaned = cleaned[n:]
		var body bytes.Buffer
		ct := ingest.ContentTypeJSONLines
		if i%2 == 1 {
			ct = ingest.ContentTypeBinary
			body.Write(ingest.EncodeBinary(nil, batch))
		} else if err := ingest.EncodeJSONLines(&body, batch); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/ingest", ct, &body)
		if err != nil {
			t.Fatal(err)
		}
		var ir struct {
			Accepted int `json:"accepted"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 || ir.Accepted != n {
			t.Fatalf("batch %d: status %d accepted %d of %d", i, resp.StatusCode, ir.Accepted, n)
		}
	}

	// Flush: end of feed, every slot becomes final.
	resp, err := http.Post(ts.URL+"/ingest/flush", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("flush status %d", resp.StatusCode)
	}

	// A clean feed must sail through untouched.
	resp, err = http.Get(ts.URL + "/ingest/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st ingest.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Rejected != 0 || st.Dropped != 0 || st.BadRecords != 0 {
		t.Fatalf("clean feed: rejected=%d dropped=%d bad=%d", st.Rejected, st.Dropped, st.BadRecords)
	}

	// /spots at every slot midpoint must track the batch labels.
	checked, mismatches := 0, 0
	grid := srv.view.Load().grid
	for j := 0; j < grid.Slots; j++ {
		at := grid.Start.Add(time.Duration(j)*grid.SlotLen + grid.SlotLen/2)
		resp, err := http.Get(ts.URL + "/spots?at=" + at.UTC().Format(time.RFC3339))
		if err != nil {
			t.Fatal(err)
		}
		var spots []spotJSON
		if err := json.NewDecoder(resp.Body).Decode(&spots); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(spots) != len(srv.result().Spots) {
			t.Fatalf("slot %d: %d spots, want %d", j, len(spots), len(srv.result().Spots))
		}
		for i := range spots {
			batchLabel := srv.result().Spots[i].Labels[j].String()
			if batchLabel == "Unidentified" && spots[i].Context == "Unidentified" {
				continue
			}
			checked++
			if spots[i].Context != batchLabel {
				mismatches++
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d active (spot, slot) pairs compared", checked)
	}
	if rate := float64(mismatches) / float64(checked); rate > 0.10 {
		t.Fatalf("live/batch mismatch rate %.3f over %d pairs", rate, checked)
	}
}

// TestOpsEndpoints drives the operational surface end to end: an /ingest
// POST must advance the counters a /metrics scrape reports, /ingest/stats
// must agree with the scrape, /healthz must flip from ok to unready when
// the ingest service closes, and the opt-in pprof index must be mounted.
func TestOpsEndpoints(t *testing.T) {
	ts, _, svc, out, cleanup := liveFixture(t)
	for _, f := range cleanup {
		defer f()
	}
	cleaned, _ := clean.Clean(out.Records, clean.Config{ValidFrame: citymap.Island})

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.String()
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthz before close: %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("pprof index: status %d", code)
	}

	var body bytes.Buffer
	if err := ingest.EncodeJSONLines(&body, cleaned[:500]); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/ingest", ingest.ContentTypeJSONLines, &body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if resp, err = http.Post(ts.URL+"/ingest/flush", "", nil); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	code, scrape := get("/metrics")
	if code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	resp, err = http.Get(ts.URL + "/ingest/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st ingest.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Accepted == 0 {
		t.Fatal("nothing accepted")
	}
	// Every per-shard accepted counter in the scrape must match the JSON.
	for _, sh := range st.Shards {
		want := fmt.Sprintf("ingest_accepted_total{shard=%q} %d", fmt.Sprint(sh.Shard), sh.Accepted)
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	for _, want := range []string{
		`ingest_http_requests_total{code="200"}`,
		"ingest_queue_wait_seconds_count",
		"ingest_aggregator_cells",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/healthz"); code != 503 || !strings.Contains(body, `"status":"unready"`) {
		t.Fatalf("healthz after close: %d %q", code, body)
	}
}

// TestLiveSpotsBeforeFeed: with nothing ingested yet every context serves
// as Unidentified rather than erroring.
func TestLiveSpotsBeforeFeed(t *testing.T) {
	ts, srv, _, _, cleanup := liveFixture(t)
	for _, f := range cleanup {
		defer f()
	}
	resp, err := http.Get(ts.URL + "/spots")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var spots []spotJSON
	if err := json.NewDecoder(resp.Body).Decode(&spots); err != nil {
		t.Fatal(err)
	}
	if len(spots) != len(srv.result().Spots) {
		t.Fatalf("%d spots, want %d", len(spots), len(srv.result().Spots))
	}
	for _, sp := range spots {
		if sp.Context != "Unidentified" {
			t.Fatalf("context %q before any feed", sp.Context)
		}
	}
}
