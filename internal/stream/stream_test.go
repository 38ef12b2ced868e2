package stream

import (
	"math"
	"testing"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/clean"
	"taxiqueue/internal/cluster"
	"taxiqueue/internal/core"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
	"taxiqueue/internal/sim"
)

// batchDay simulates and batch-analyzes one small day, shared by the
// equivalence tests.
type batchDay struct {
	records []mdt.Record
	result  *core.Result
	grid    core.SlotGrid
}

var cachedDay *batchDay

func getBatchDay(t testing.TB) *batchDay {
	t.Helper()
	if cachedDay != nil {
		return cachedDay
	}
	out := sim.Run(sim.Config{Seed: 777, City: citymap.Generate(777, 0.1)})
	records, _ := clean.Clean(out.Records, clean.Config{ValidFrame: citymap.Island})
	cfg := core.DefaultEngineConfig()
	cfg.Detector.Cluster = cluster.Params{EpsMeters: 15, MinPoints: 25}
	cfg.Grid = core.DaySlots(out.Config.Start)
	engine, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Analyze(records)
	if err != nil {
		t.Fatal(err)
	}
	cachedDay = &batchDay{records: records, result: res, grid: cfg.Grid}
	return cachedDay
}

func liveFromBatch(d *batchDay) *Live {
	spots := make([]core.QueueSpot, len(d.result.Spots))
	ths := make([]core.Thresholds, len(d.result.Spots))
	for i := range d.result.Spots {
		spots[i] = d.result.Spots[i].Spot
		ths[i] = d.result.Spots[i].Thresholds
	}
	return NewLive(Config{
		Spots:      spots,
		Thresholds: ths,
		Grid:       d.grid,
		Amplify:    core.PaperAmplification,
	})
}

// TestIncrementalPEAMatchesBatch: streaming the day through Live must
// produce, taxi by taxi, exactly the pickups of the batch algorithm, every
// field of every pickup equal.
func TestIncrementalPEAMatchesBatch(t *testing.T) {
	d := getBatchDay(t)
	live := liveFromBatch(d)
	streamedBy := map[string][]core.Pickup{}
	for _, rec := range d.records {
		for _, ev := range live.Ingest(rec) {
			if ev.Kind == PickupDetected {
				// The record that ends a taxi's run commits its pickup.
				streamedBy[rec.TaxiID] = append(streamedBy[rec.TaxiID], ev.Pickup)
			}
		}
	}
	byTaxi := mdt.SplitByTaxi(d.records)
	for id, tr := range byTaxi {
		batch := core.ExtractPickups(tr, core.DefaultSpeedThresholdKmh)
		streamed := streamedBy[id]
		if len(streamed) != len(batch) {
			t.Fatalf("taxi %s: streamed %d pickups, batch %d", id, len(streamed), len(batch))
		}
		for i := range batch {
			if streamed[i] != batch[i] {
				t.Fatalf("taxi %s pickup %d: streamed %+v, batch %+v", id, i, streamed[i], batch[i])
			}
		}
	}
}

// TestLiveSlotLabelsMatchBatch: streaming the whole day through Live and
// collecting SlotClosed events must reproduce the batch labels for slots
// with activity (the batch sees identical waits and uses the same
// thresholds).
func TestLiveSlotLabelsMatchBatch(t *testing.T) {
	d := getBatchDay(t)
	live := liveFromBatch(d)

	type key struct{ spot, slot int }
	got := map[key]core.QueueType{}
	collect := func(events []Event) {
		for _, ev := range events {
			if ev.Kind == SlotClosed {
				got[key{ev.Spot, ev.Slot}] = ev.Label
			}
		}
	}
	for _, rec := range d.records {
		collect(live.Ingest(rec))
	}
	collect(live.Flush())

	if len(got) == 0 {
		t.Fatal("no slots closed")
	}
	checked, mismatches := 0, 0
	for i := range d.result.Spots {
		sa := &d.result.Spots[i]
		for j, batchLabel := range sa.Labels {
			liveLabel, ok := got[key{i, j}]
			if !ok {
				continue // slot with no live activity: batch may still label via cross-slot waits
			}
			checked++
			if liveLabel != batchLabel {
				mismatches++
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d slots compared", checked)
	}
	// The live engine attributes cross-slot waits slightly differently
	// (it only sees a wait when the pickup completes), so a small
	// disagreement rate is expected — but the two views must agree on the
	// vast majority of slots.
	if rate := float64(mismatches) / float64(checked); rate > 0.10 {
		t.Fatalf("live/batch label mismatch rate %.3f over %d slots", rate, checked)
	}
}

// TestLiveCellsMatchBatchOnSameWaits: batch and live build a cell through
// the same code, so a live cell that saw exactly the waits the batch sees
// has bit-identical features. The batch side runs ComputeFeatures over the
// waits the live engine itself detected at each spot; a live cell may only
// differ where it closed before a cross-slot wait completed (its counts
// then differ too).
func TestLiveCellsMatchBatchOnSameWaits(t *testing.T) {
	d := getBatchDay(t)
	live := liveFromBatch(d)
	type key struct{ spot, slot int }
	closed := map[key]core.SlotFeatures{}
	waits := make([][]core.Wait, len(d.result.Spots))
	collect := func(events []Event) {
		for _, ev := range events {
			switch {
			case ev.Kind == SlotClosed:
				closed[key{ev.Spot, ev.Slot}] = ev.Features
			case ev.Kind == PickupDetected && ev.Pickup.HasWait && ev.Spot >= 0:
				waits[ev.Spot] = append(waits[ev.Spot], ev.Pickup.Wait)
			}
		}
	}
	for _, rec := range d.records {
		collect(live.Ingest(rec))
	}
	collect(live.Flush())

	batch := make([][]core.SlotFeatures, len(waits))
	for spot := range waits {
		batch[spot] = core.ComputeFeatures(waits[spot], d.grid, core.PaperAmplification)
	}
	compared, differ := 0, 0
	for k, lf := range closed {
		bf := batch[k.spot][k.slot]
		if bf.NArr == 0 && bf.NDep == 0 {
			t.Fatalf("spot %d slot %d closed live but has no batch activity", k.spot, k.slot)
		}
		if lf.NArr != bf.NArr || lf.NDep != bf.NDep {
			continue // closed before a cross-slot wait completed
		}
		compared++
		if !sameBits(lf, bf) {
			differ++
			if differ <= 3 {
				t.Errorf("spot %d slot %d: live %+v, batch %+v", k.spot, k.slot, lf, bf)
			}
		}
	}
	t.Logf("%d cells closed, %d with matching counts, %d differ", len(closed), compared, differ)
	if differ > 0 {
		t.Fatalf("%d of %d same-wait cells differ from batch", differ, compared)
	}
	if compared < 800 {
		t.Fatalf("only %d cells compared", compared)
	}
}

// sameBits reports whether two 5-tuples are identical bit for bit.
func sameBits(a, b core.SlotFeatures) bool {
	return a.TWait == b.TWait && a.TDep == b.TDep &&
		math.Float64bits(a.NArr) == math.Float64bits(b.NArr) &&
		math.Float64bits(a.QLen) == math.Float64bits(b.QLen) &&
		math.Float64bits(a.NDep) == math.Float64bits(b.NDep) &&
		a.StreetDepartures == b.StreetDepartures && a.BookingDepartures == b.BookingDepartures
}

// TestLivePickupEventsMatchBatchAssignment: every streamed PickupDetected
// lands at the same spot the batch assignment chose.
func TestLivePickupEventsMatchBatchAssignment(t *testing.T) {
	d := getBatchDay(t)
	live := liveFromBatch(d)
	spots := make([]core.QueueSpot, len(d.result.Spots))
	for i := range d.result.Spots {
		spots[i] = d.result.Spots[i].Spot
	}
	batchAssigned := core.AssignPickups(d.result.Pickups, spots, 30)
	batchCounts := make([]int, len(spots))
	for i := range batchAssigned {
		batchCounts[i] = len(batchAssigned[i])
	}
	liveCounts := make([]int, len(spots))
	unmatched := 0
	for _, rec := range d.records {
		for _, ev := range live.Ingest(rec) {
			if ev.Kind == PickupDetected {
				if ev.Spot < 0 {
					unmatched++
					continue
				}
				liveCounts[ev.Spot]++
			}
		}
	}
	for i := range spots {
		if liveCounts[i] != batchCounts[i] {
			t.Fatalf("spot %d: live %d pickups, batch %d", i, liveCounts[i], batchCounts[i])
		}
	}
	// Pickups the batch assignment drops as scatter noise must still
	// surface as Spot=-1 events — they are live spot discovery's feed.
	wantUnmatched := len(d.result.Pickups)
	for _, c := range batchCounts {
		wantUnmatched -= c
	}
	if unmatched != wantUnmatched {
		t.Fatalf("live reported %d unmatched pickups, batch dropped %d", unmatched, wantUnmatched)
	}
}

func TestCurrentEstimate(t *testing.T) {
	grid := core.DaySlots(time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC))
	spot := core.QueueSpot{Pos: geo.Point{Lat: 1.3, Lon: 103.83}}
	th := core.Thresholds{
		EtaWait: time.Minute, EtaDep: time.Minute,
		TauArr: 20, TauDep: 20, EtaDur: 27 * time.Minute, TauRatio: 0.84,
	}
	live := NewLive(Config{Spots: []core.QueueSpot{spot}, Thresholds: []core.Thresholds{th}, Grid: grid})

	noon := grid.Start.Add(12 * time.Hour)
	// No activity yet.
	if _, ok := live.CurrentEstimate(0, noon); ok {
		t.Fatal("estimate with no activity")
	}
	// Stream a burst of quick street pickups in the noon slot: C2-ish
	// (many arrivals, short waits). Build ~12 pickups in 15 minutes.
	taxi := 0
	for m := 0; m < 15; m++ {
		base := noon.Add(time.Duration(m) * time.Minute)
		taxi++
		id := string(rune('A' + taxi%26))
		recs := []mdt.Record{
			{Time: base, TaxiID: id, Pos: spot.Pos, Speed: 30, State: mdt.Free},
			{Time: base.Add(20 * time.Second), TaxiID: id, Pos: spot.Pos, Speed: 3, State: mdt.Free},
			{Time: base.Add(40 * time.Second), TaxiID: id, Pos: spot.Pos, Speed: 2, State: mdt.POB},
			{Time: base.Add(60 * time.Second), TaxiID: id, Pos: spot.Pos, Speed: 35, State: mdt.POB},
		}
		for _, r := range recs {
			live.Ingest(r)
		}
	}
	at := noon.Add(15 * time.Minute)
	q, ok := live.CurrentEstimate(0, at)
	if !ok {
		t.Fatal("no estimate with activity")
	}
	// Extrapolated: ~30 arrivals/slot with 20s waits -> NArr >= TauArr
	// and TWait < EtaWait -> C2.
	if q != core.C2 {
		t.Fatalf("provisional context = %v, want C2", q)
	}
	// Too-early estimates (under 20% of the slot) are refused.
	if _, ok := live.CurrentEstimate(0, noon.Add(time.Minute)); ok {
		t.Fatal("estimate extrapolated from <20% of a slot")
	}
	// Out-of-range spots (stale client, wrong config) answer "no estimate"
	// instead of panicking.
	for _, spot := range []int{-1, 1, 99} {
		if q, ok := live.CurrentEstimate(spot, at); ok || q != core.Unidentified {
			t.Fatalf("spot %d: estimate %v, ok=%v for an unknown spot", spot, q, ok)
		}
	}
}

func TestFlushIdempotent(t *testing.T) {
	d := getBatchDay(t)
	live := liveFromBatch(d)
	for _, rec := range d.records[:len(d.records)/10] {
		live.Ingest(rec)
	}
	first := live.Flush()
	second := live.Flush()
	if len(second) != 0 {
		t.Fatalf("second flush produced %d events", len(second))
	}
	_ = first
}

func BenchmarkLiveIngest(b *testing.B) {
	d := getBatchDay(b)
	live := liveFromBatch(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		live.Ingest(d.records[i%len(d.records)])
	}
}
