// Dashboard: the §7.1 deployment shape, self-contained.
//
// It runs the backend analytic pipeline once, exposes the queue spots and a
// vehicle monitor over HTTP on a random local port (the way the deployed
// system feeds its web frontend), queries its own API like a frontend
// would, prints what it got back, and exits.
//
//	go run ./examples/dashboard
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"sort"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/clean"
	"taxiqueue/internal/cluster"
	"taxiqueue/internal/core"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/monitor"
	"taxiqueue/internal/sim"
)

type spotDTO struct {
	Lat      float64 `json:"lat"`
	Lon      float64 `json:"lon"`
	Zone     string  `json:"zone"`
	Context  string  `json:"context"`
	Landmark string  `json:"landmark,omitempty"`
}

func main() {
	// Backend: one analyzed day.
	city := citymap.Generate(31, 0.15)
	day := sim.Run(sim.Config{Seed: 31, City: city, InjectFaults: true})
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
	grid := result.Config.Grid
	log.Printf("backend ready: %d queue spots", len(result.Spots))

	// Monitor service over the busiest spot, fed from ground truth.
	monSvc := monitor.NewService()
	busiest := result.Spots[0]
	counter := monitor.NewAreaCounter("busiest")
	for i, lm := range city.Landmarks {
		if geo.Equirect(lm.Pos, busiest.Spot.Pos) < 30 {
			for _, s := range day.Truth.Spots[i].TaxiQueueLog {
				if err := counter.Observe(s.Time, s.Len); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	monSvc.Add(counter)

	// HTTP API.
	mux := http.NewServeMux()
	mux.HandleFunc("/spots", func(w http.ResponseWriter, r *http.Request) {
		at, err := time.Parse(time.RFC3339, r.URL.Query().Get("at"))
		if err != nil {
			http.Error(w, "bad 'at'", http.StatusBadRequest)
			return
		}
		var out []spotDTO
		for i := range result.Spots {
			sa := &result.Spots[i]
			dto := spotDTO{
				Lat: sa.Spot.Pos.Lat, Lon: sa.Spot.Pos.Lon,
				Zone: sa.Spot.Zone.String(), Context: sa.LabelAt(grid, at).String(),
			}
			if lm, d, ok := city.NearestLandmark(sa.Spot.Pos); ok && d < 50 {
				dto.Landmark = lm.Name
			}
			out = append(out, dto)
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(out); err != nil {
			log.Print(err)
		}
	})
	mux.Handle("/monitors", monSvc)
	mux.Handle("/monitors/", monSvc)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != http.ErrServerClosed {
			log.Print(err)
		}
	}()
	base := "http://" + ln.Addr().String()
	log.Printf("serving on %s", base)

	// Frontend: query the evening rush like the web UI's map view.
	at := grid.Start.Add(18 * time.Hour).Format(time.RFC3339)
	var spots []spotDTO
	getJSON(base+"/spots?at="+at, &spots)
	byContext := map[string][]spotDTO{}
	for _, s := range spots {
		byContext[s.Context] = append(byContext[s.Context], s)
	}
	fmt.Printf("\n18:00 city map (%d spots):\n", len(spots))
	var contexts []string
	for c := range byContext {
		contexts = append(contexts, c)
	}
	sort.Strings(contexts)
	for _, c := range contexts {
		fmt.Printf("  %-12s %d spots", c, len(byContext[c]))
		if len(byContext[c]) > 0 && byContext[c][0].Landmark != "" {
			fmt.Printf("  (e.g. %s)", byContext[c][0].Landmark)
		}
		fmt.Println()
	}

	// Frontend: the busiest spot's monitor series around the rush.
	var series []monitor.Sample
	from := grid.Start.Add(18 * time.Hour)
	getJSON(fmt.Sprintf("%s/monitors/busiest/series?from=%s&to=%s", base,
		from.Format(time.RFC3339), from.Add(10*time.Minute).Format(time.RFC3339)), &series)
	fmt.Println("\nbusiest-spot monitor, 18:00-18:10 (vehicles in stand area):")
	for _, s := range series {
		fmt.Printf("  %s  %d\n", s.Time.Format("15:04"), s.Count)
	}

	if err := srv.Close(); err != nil {
		log.Print(err)
	}
}

func getJSON(url string, v any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s -> %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}
