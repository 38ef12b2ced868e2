// Airport: a taxi-queue-heavy scenario with independent validation.
//
// The airport is the city's taxi-rich extreme: a standing taxi queue most
// of the day (C3), flipping to C1 when passenger banks land. This example
// validates the engine's labels against two independent data sources the
// paper uses in §6.2.2:
//
//   - the vehicle monitor system (polygon vehicle counts every minute), and
//   - the booking backend's failed-booking ledger,
//
// and cross-checks the Little's-Law queue-length estimate L̄ against the
// simulator's ground-truth queue length.
//
//	go run ./examples/airport
package main

import (
	"fmt"
	"log"
	"math"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/clean"
	"taxiqueue/internal/cluster"
	"taxiqueue/internal/core"
	"taxiqueue/internal/monitor"
	"taxiqueue/internal/sim"
)

func main() {
	city := citymap.Generate(23, 0.2)
	day := sim.Run(sim.Config{Seed: 23, City: city, InjectFaults: true})
	records, _ := clean.Clean(day.Records, clean.Config{ValidFrame: citymap.Island})

	cfg := core.DefaultEngineConfig()
	cfg.Detector.Cluster = cluster.Params{EpsMeters: 15, MinPoints: 40}
	engine, err := core.NewEngine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	result, err := engine.Analyze(records)
	if err != nil {
		log.Fatal(err)
	}

	// Find the busiest detected airport spot and its ground truth.
	var spot *core.SpotAnalysis
	var truth *sim.SpotTruth
	for i := range result.Spots {
		lm, d, ok := city.NearestLandmark(result.Spots[i].Spot.Pos)
		if ok && d < 30 && lm.Category == citymap.AirportFerry {
			spot = &result.Spots[i]
			for j, cand := range city.Landmarks {
				if cand.Name == lm.Name {
					truth = day.Truth.Spots[j]
				}
			}
			break
		}
	}
	if spot == nil {
		log.Fatal("no airport spot detected; try another seed")
	}
	fmt.Printf("airport spot %v: %d pickups\n\n", spot.Spot.Pos, spot.Spot.PickupCount)

	// Replay the ground-truth stand occupancy into the monitor component,
	// as the deployed camera system would.
	counter := monitor.NewAreaCounter("airport")
	for _, s := range truth.TaxiQueueLog {
		if err := counter.Observe(s.Time, s.Len); err != nil {
			log.Fatal(err)
		}
	}

	grid := result.Config.Grid
	fmt.Println("slot    ctx  L̄(Little)  monitor-avg  failed-bookings")
	fmt.Println("------------------------------------------------------")
	var littleErr, littleN float64
	for j := 12; j < 46; j += 2 {
		from, to := grid.Bounds(j)
		f := spot.Features[j]
		mon := counter.Average(from, to)
		failed := truth.FailedBookingCount(from, to)
		fmt.Printf("%s   %-4v %8.1f %12.1f %12d\n",
			from.Format("15:04"), spot.Labels[j], f.QLen, mon, failed)
		if mon > 0 {
			littleErr += math.Abs(f.QLen - mon)
			littleN++
		}
	}
	if littleN > 0 {
		fmt.Printf("\nmean |L̄ - monitor| = %.2f taxis over %d slots\n",
			littleErr/littleN, int(littleN))
	}

	// Aggregate the §6.2.2 validation per label.
	taxiAvg := map[core.QueueType][]float64{}
	for j := range spot.Labels {
		from, to := grid.Bounds(j)
		taxiAvg[spot.Labels[j]] = append(taxiAvg[spot.Labels[j]], counter.Average(from, to))
	}
	fmt.Println("\nmonitored taxi count by context (paper Table 8: C1 6.13, C3 3.26, C4 0.32):")
	for _, q := range []core.QueueType{core.C1, core.C2, core.C3, core.C4, core.Unidentified} {
		vals := taxiAvg[q]
		if len(vals) == 0 {
			continue
		}
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		fmt.Printf("  %-12v %5.2f (%d slots)\n", q, sum/float64(len(vals)), len(vals))
	}
}
