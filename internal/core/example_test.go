package core_test

import (
	"fmt"
	"time"

	"taxiqueue/internal/core"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
)

// ExampleExtractPickups shows Algorithm 1 on a hand-written trajectory: a
// taxi crawls in a stand line (two low-speed FREE records), picks up (POB
// at low speed) and drives off.
func ExampleExtractPickups() {
	base := time.Date(2026, 1, 5, 9, 0, 0, 0, time.UTC)
	stand := geo.Point{Lat: 1.3044, Lon: 103.8335}
	rec := func(sec int, speed float64, st mdt.State) mdt.Record {
		return mdt.Record{Time: base.Add(time.Duration(sec) * time.Second),
			TaxiID: "SH0001A", Pos: stand, Speed: speed, State: st}
	}
	trajectory := mdt.Trajectory{
		rec(0, 38, mdt.Free),  // cruising in
		rec(60, 4, mdt.Free),  // joins the line
		rec(110, 2, mdt.Free), // crawling forward
		rec(170, 3, mdt.POB),  // passenger boards
		rec(230, 35, mdt.POB), // drives off (terminates the run)
	}
	pickups := core.ExtractPickups(trajectory, core.DefaultSpeedThresholdKmh)
	fmt.Printf("pickups: %d, run ends at +%v\n", len(pickups), pickups[0].End.Sub(base))
	w := pickups[0].Wait
	fmt.Printf("street job: %v, waited %v\n", w.Street(), w.Duration())
	// Output:
	// pickups: 1, run ends at +2m50s
	// street job: true, waited 1m50s
}

// ExampleClassify labels one slot with hand-built features and thresholds.
func ExampleClassify() {
	feats := []core.SlotFeatures{{
		TWait: 12 * time.Minute, // taxis wait long
		NArr:  20, QLen: 8,      // a standing taxi queue (L̄ >= 1)
		TDep: 4 * time.Minute, NDep: 7, // few, widely spaced departures
	}}
	th := core.Thresholds{
		EtaWait: time.Minute, EtaDep: 80 * time.Second,
		TauArr: 22.5, TauDep: 22.5,
		EtaDur: 27 * time.Minute, TauRatio: 0.85,
	}
	fmt.Println(core.Classify(feats, th)[0])
	// Output:
	// C3
}
