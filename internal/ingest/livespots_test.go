package ingest

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/cluster"
	"taxiqueue/internal/core"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
)

// popupSite picks a location inside the valid frame at least 200 m from
// every batch spot — somewhere the nightly run has no queue.
func popupSite(t *testing.T, d *day) geo.Point {
	t.Helper()
	base := d.scfg.Spots[0].Pos
	for east := 250.0; east < 5000; east += 97 {
		for north := -400.0; north <= 400; north += 83 {
			p := geo.Offset(base, north, east)
			if !citymap.Island.Contains(p) {
				continue
			}
			clear := true
			for _, sp := range d.scfg.Spots {
				if geo.Equirect(sp.Pos, p) < 200 {
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

// popupRecords fabricates n taxis each making one street pickup scattered
// a few meters around site, one per minute starting at t0: slow-rolling
// FREE, a crawl, then occupied and gone — the §4 pickup signature.
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

// TestLiveSpotDiscoveryPopup is the ingest-level acceptance test: a pop-up
// queue that the batch spot list knows nothing about must surface in
// Snapshot.Live as a confirmed spot while the feed is still running — and
// the snapshot epoch must have advanced so render caches see it.
func TestLiveSpotDiscoveryPopup(t *testing.T) {
	d := getDay(t)
	cfg := d.serviceConfig()
	cfg.Shards = 4
	cfg.LiveSpots = LiveSpotsConfig{
		Enabled: true,
		Detector: core.LiveDetectorConfig{
			Cluster: cluster.Params{EpsMeters: 15, MinPoints: 10},
			Window:  3 * time.Hour,
		},
	}
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	site := popupSite(t, d)
	noon := d.grid.Start.Add(12 * time.Hour)

	// Morning feed: only the organic scatter reaches discovery, so nothing
	// may have confirmed at the (deliberately remote) popup site.
	var morning []mdt.Record
	for _, r := range d.raw {
		if r.Time.Before(noon) {
			morning = append(morning, r)
		}
	}
	feed(t, svc, morning)
	if err := svc.FlushUntil(noon); err != nil {
		t.Fatal(err)
	}
	for _, ls := range svc.LiveSpots() {
		if geo.Equirect(ls.Spot.Pos, site) < 60 {
			t.Fatalf("live spot at the popup site before the popup: %+v", ls)
		}
	}
	epochBefore := svc.Snapshot().Epoch

	// The popup: 30 pickups in half an hour at a spot no batch pass has
	// seen. 30 ≥ ConfirmPoints (2×10), so one refresh later it's confirmed.
	feed(t, svc, popupRecords(site, 30, noon))
	if err := svc.FlushUntil(noon.Add(45 * time.Minute)); err != nil {
		t.Fatal(err)
	}

	var got *core.LiveSpot
	for i, ls := range svc.LiveSpots() {
		if geo.Equirect(ls.Spot.Pos, site) < 60 {
			got = &svc.LiveSpots()[i]
			break
		}
	}
	if got == nil {
		t.Fatalf("popup site never discovered; %d live spots tracked", len(svc.LiveSpots()))
	}
	if got.State != core.SpotConfirmed {
		t.Fatalf("popup spot state %v, want confirmed (%+v)", got.State, got)
	}
	if got.Spot.PickupCount < 20 {
		t.Fatalf("popup spot window support %d, want ≥ 20", got.Spot.PickupCount)
	}
	if wantZone := citymap.ZoneOf(site); got.Spot.Zone != wantZone {
		t.Fatalf("popup spot zone %v, want %v", got.Spot.Zone, wantZone)
	}
	if epoch := svc.Snapshot().Epoch; epoch <= epochBefore {
		t.Fatalf("snapshot epoch %d did not advance past %d on live-spot publish", epoch, epochBefore)
	}
	// Lifecycle counters made it to the metrics registry.
	if n := svc.met.spotConfirmed.Value(); n < 1 {
		t.Fatalf("spot_live_confirmed_total = %d, want ≥ 1", n)
	}
	if n := svc.live.stats().WindowPoints; n == 0 {
		t.Fatal("live window empty right after the popup")
	}
}

// TestLiveSpotsDisabledByDefault: with discovery off the snapshot carries
// no live spots and the accessor answers nil — the pre-PR read surface is
// unchanged.
func TestLiveSpotsDisabledByDefault(t *testing.T) {
	d := getDay(t)
	svc := runService(t, d.serviceConfig(), d.raw[:2000])
	defer svc.Close()
	if live := svc.LiveSpots(); live != nil {
		t.Fatalf("live spots with discovery disabled: %+v", live)
	}
}
