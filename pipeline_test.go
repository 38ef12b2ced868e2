package taxiqueue

// Cross-module integration tests: the full production data path including
// the embedded store's persistence layer, exactly as cmd/mdtgen +
// cmd/queuectl compose it.

import (
	"bytes"
	"testing"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/clean"
	"taxiqueue/internal/cluster"
	"taxiqueue/internal/core"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
	"taxiqueue/internal/monitor"
	"taxiqueue/internal/sim"
	"taxiqueue/internal/store"
)

func TestPipelineThroughStore(t *testing.T) {
	// Simulate -> persist to the binary store -> reload -> scan -> clean
	// -> analyze. The result must be identical to analyzing the in-memory
	// records directly.
	city := citymap.Generate(900, 0.1)
	out := sim.Run(sim.Config{Seed: 900, City: city, InjectFaults: true,
		Duration: 12 * time.Hour})

	st := store.New()
	if err := st.AppendAll(out.Records); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != len(out.Records) {
		t.Fatalf("store round trip lost records: %d vs %d", loaded.Len(), len(out.Records))
	}
	var scanned []mdt.Record
	loaded.Scan(out.Config.Start, out.Config.Start.Add(out.Config.Duration).Add(time.Second),
		func(r mdt.Record) bool {
			scanned = append(scanned, r)
			return true
		})
	if len(scanned) != len(out.Records) {
		t.Fatalf("scan returned %d of %d records", len(scanned), len(out.Records))
	}

	cfg := core.DefaultEngineConfig()
	cfg.Detector.Cluster = cluster.Params{EpsMeters: 15, MinPoints: 25}
	cfg.Grid = core.DaySlots(out.Config.Start)
	engine, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	analyze := func(recs []mdt.Record) *core.Result {
		cleaned, _ := clean.Clean(recs, clean.Config{ValidFrame: citymap.Island})
		res, err := engine.Analyze(cleaned)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	direct := analyze(out.Records)
	viaStore := analyze(scanned)
	if len(direct.Spots) != len(viaStore.Spots) {
		t.Fatalf("spot counts differ: direct %d, via store %d",
			len(direct.Spots), len(viaStore.Spots))
	}
	for i := range direct.Spots {
		if direct.Spots[i].Spot != viaStore.Spots[i].Spot {
			t.Fatalf("spot %d differs after store round trip", i)
		}
		for j := range direct.Spots[i].Labels {
			if direct.Spots[i].Labels[j] != viaStore.Spots[i].Labels[j] {
				t.Fatalf("spot %d slot %d label differs after store round trip", i, j)
			}
		}
	}
}

func TestPipelineTextCodecRoundTrip(t *testing.T) {
	// The text format (Table 2) must survive a full day of simulated
	// records without loss that affects analysis.
	out := sim.Run(sim.Config{Seed: 901, City: citymap.Generate(901, 0.05),
		Duration: 6 * time.Hour})
	var buf bytes.Buffer
	if err := mdt.WriteText(&buf, out.Records); err != nil {
		t.Fatal(err)
	}
	parsed, err := mdt.ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(out.Records) {
		t.Fatalf("text round trip: %d of %d records", len(parsed), len(out.Records))
	}
	for i := range parsed {
		a, b := parsed[i], out.Records[i]
		if a.TaxiID != b.TaxiID || a.State != b.State ||
			a.Time.Unix() != b.Time.Unix() {
			t.Fatalf("record %d differs after text round trip", i)
		}
		// Positions survive at 1e-5 degree (~1 m) resolution.
		if geo.Equirect(a.Pos, b.Pos) > 2 {
			t.Fatalf("record %d moved %.1f m in text round trip", i, geo.Equirect(a.Pos, b.Pos))
		}
	}
}

func TestPipelineMonitorAgreesWithTruth(t *testing.T) {
	// Replaying ground-truth queue logs into the monitor and averaging per
	// slot must agree with SpotTruth's own time-weighted average.
	out := sim.Run(sim.Config{Seed: 902, City: citymap.Generate(902, 0.05)})
	var busiest int
	for i, st := range out.Truth.Spots {
		if st.Pickups > out.Truth.Spots[busiest].Pickups {
			busiest = i
		}
	}
	truth := out.Truth.Spots[busiest]
	counter := monitor.NewAreaCounter("x")
	for _, s := range truth.TaxiQueueLog {
		if err := counter.Observe(s.Time, s.Len); err != nil {
			t.Fatal(err)
		}
	}
	start := out.Config.Start
	for h := 0; h < 24; h++ {
		from := start.Add(time.Duration(h) * time.Hour)
		to := from.Add(time.Hour)
		a := counter.Average(from, to)
		b := truth.AvgTaxiQueueLen(from, to)
		if diff := a - b; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("hour %d: monitor %.4f vs truth %.4f", h, a, b)
		}
	}
}
