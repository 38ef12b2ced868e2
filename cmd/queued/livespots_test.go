package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/cluster"
	"taxiqueue/internal/core"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/ingest"
	"taxiqueue/internal/mdt"
)

// popupSite finds a valid-frame location at least 200 m from every batch
// spot — a queue the nightly run knows nothing about.
func popupSite(t *testing.T, spots []core.SpotAnalysis) geo.Point {
	t.Helper()
	base := spots[0].Spot.Pos
	for east := 250.0; east < 5000; east += 97 {
		for north := -400.0; north <= 400; north += 83 {
			p := geo.Offset(base, north, east)
			if !citymap.Island.Contains(p) {
				continue
			}
			clear := true
			for i := range spots {
				if geo.Equirect(spots[i].Spot.Pos, p) < 200 {
					clear = false
					break
				}
			}
			if clear {
				return p
			}
		}
	}
	t.Fatal("no popup site clear of every batch spot")
	return geo.Point{}
}

// popupRecords fabricates n one-pickup taxi trajectories scattered a few
// meters around site, one per minute starting at t0.
func popupRecords(site geo.Point, n int, t0 time.Time) []mdt.Record {
	rng := rand.New(rand.NewSource(5))
	var recs []mdt.Record
	for i := 0; i < n; i++ {
		base := t0.Add(time.Duration(i) * time.Minute)
		id := fmt.Sprintf("POPUP%03d", i)
		pos := geo.Offset(site, rng.NormFloat64()*4, rng.NormFloat64()*4)
		recs = append(recs,
			mdt.Record{Time: base, TaxiID: id, Pos: pos, Speed: 30, State: mdt.Free},
			mdt.Record{Time: base.Add(20 * time.Second), TaxiID: id, Pos: pos, Speed: 3, State: mdt.Free},
			mdt.Record{Time: base.Add(40 * time.Second), TaxiID: id, Pos: pos, Speed: 2, State: mdt.POB},
			mdt.Record{Time: base.Add(60 * time.Second), TaxiID: id, Pos: pos, Speed: 35, State: mdt.POB},
		)
	}
	return recs
}

// TestSpotsLiveSurfacesPopup is the serving-side acceptance test: a pop-up
// queue fed mid-day must appear on /spots?live=1 as a confirmed live spot
// (with its lifecycle state on the wire), while the same request without
// live=1 keeps serving exactly the batch spot list.
func TestSpotsLiveSurfacesPopup(t *testing.T) {
	ts, srv, svc, _, cleanup := liveFixtureCfg(t, func(cfg *ingest.Config) {
		cfg.LiveSpots = ingest.LiveSpotsConfig{
			Enabled: true,
			Detector: core.LiveDetectorConfig{
				Cluster: cluster.Params{EpsMeters: 15, MinPoints: 10},
				Window:  3 * time.Hour,
			},
		}
	})
	for _, f := range cleanup {
		defer f()
	}

	site := popupSite(t, srv.result().Spots)
	noon := srv.view.Load().grid.Start.Add(12 * time.Hour)

	var body bytes.Buffer
	if err := ingest.EncodeJSONLines(&body, popupRecords(site, 30, noon)); err != nil {
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
	// A timer flush (not end-of-feed): the feed clock reaches 12:45, the
	// discovery window still holds every popup pickup.
	if err := svc.FlushUntil(noon.Add(45 * time.Minute)); err != nil {
		t.Fatal(err)
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// Without live=1 the body is the batch list, untouched by discovery:
	// same length, and the live-only fields never appear on the wire.
	plain := get("/spots")
	var batchSpots []spotJSON
	if err := json.Unmarshal(plain, &batchSpots); err != nil {
		t.Fatal(err)
	}
	if len(batchSpots) != len(srv.result().Spots) {
		t.Fatalf("/spots has %d entries, batch %d", len(batchSpots), len(srv.result().Spots))
	}
	if s := string(plain); strings.Contains(s, `"live"`) || strings.Contains(s, `"state"`) {
		t.Fatalf("/spots without live=1 leaks live-discovery fields: %s", s)
	}

	live := get("/spots?live=1")
	var liveSpots []spotJSON
	if err := json.Unmarshal(live, &liveSpots); err != nil {
		t.Fatal(err)
	}
	if len(liveSpots) <= len(batchSpots) {
		t.Fatalf("/spots?live=1 has %d entries, no more than the %d batch spots", len(liveSpots), len(batchSpots))
	}
	// The batch prefix is identical to the plain body's entries.
	for i := range batchSpots {
		if liveSpots[i] != batchSpots[i] {
			t.Fatalf("live=1 entry %d differs from batch entry: %+v vs %+v", i, liveSpots[i], batchSpots[i])
		}
	}
	var popup *spotJSON
	for i := len(batchSpots); i < len(liveSpots); i++ {
		sp := &liveSpots[i]
		if !sp.Live || sp.State == "" {
			t.Fatalf("discovered entry missing live/state markers: %+v", sp)
		}
		if geo.Equirect(geo.Point{Lat: sp.Lat, Lon: sp.Lon}, site) < 60 {
			popup = sp
		}
	}
	if popup == nil {
		t.Fatalf("popup site absent from /spots?live=1: %s", live)
	}
	if popup.State != "confirmed" {
		t.Fatalf("popup spot state %q, want confirmed", popup.State)
	}
	if popup.Pickups < 20 {
		t.Fatalf("popup window support %d, want ≥ 20", popup.Pickups)
	}

	// The lifecycle counters reached the process scrape.
	scrape := string(get("/metrics"))
	for _, series := range []string{"spot_live_emerging_total", "spot_live_confirmed_total", "spot_live_tracked"} {
		if !strings.Contains(scrape, series) {
			t.Fatalf("scrape missing %s", series)
		}
	}
}

// TestSpotsLiveWithoutDiscovery: live=1 against a service without
// discovery enabled degrades to exactly the batch body — no error, no
// phantom entries.
func TestSpotsLiveWithoutDiscovery(t *testing.T) {
	ts, _, _, _, cleanup := liveFixture(t)
	for _, f := range cleanup {
		defer f()
	}
	for _, path := range []string{"/spots", "/spots?live=1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if strings.Contains(string(b), `"live"`) {
			t.Fatalf("%s: live entries without discovery enabled", path)
		}
	}
}
