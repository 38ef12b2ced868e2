// Command mdtgen generates a synthetic MDT log dataset: a full simulated
// day (or any duration) of event-driven taxi telemetry in the Table 2 text
// format or the binary store format — or replays it in timestamp order
// against a live queued /ingest endpoint.
//
// Usage:
//
//	mdtgen -o day.log                        # text format
//	mdtgen -o day.tqs -format store          # binary store
//	mdtgen -scale 0.25 -taxis 1000 -faults=false -duration 6h
//	mdtgen -stream http://localhost:8080/ingest -rate 5000
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/feedclient"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
	"taxiqueue/internal/sim"
	"taxiqueue/internal/store"
)

// streamFeed replays recs (already in timestamp order) to a live /ingest
// endpoint through the resilient feed client: per-request timeouts, capped
// exponential backoff across transport errors and 5xx, and 429
// backpressure resumed at the server's processed cursor.
func streamFeed(url string, recs []mdt.Record, rate float64, batchSize int, encoding string) (*feedclient.Client, error) {
	cl, err := feedclient.New(feedclient.Config{
		URL: url, BatchSize: batchSize, Encoding: encoding, Rate: rate,
		Logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rep, err := cl.Stream(context.Background(), recs)
	if err != nil {
		return nil, fmt.Errorf("after %d records: %w", rep.Sent, err)
	}
	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "mdtgen: streamed %d records in %v (%.0f rec/s, %d retries, %d backpressure rounds)\n",
		rep.Sent, elapsed.Round(time.Millisecond), float64(rep.Sent)/elapsed.Seconds(), rep.Retries, rep.Backpressure)
	return cl, nil
}

// popupSite picks a deterministic location inside the island frame at
// least 200 m from every landmark — somewhere no batch pass grows a queue
// spot, so pickups there exercise the live-discovery path.
func popupSite(city *citymap.Map) geo.Point {
	base := citymap.IslandClamp(geo.Point{Lat: citymap.Island.MinLat, Lon: citymap.Island.MinLon})
	if len(city.Landmarks) > 0 {
		base = city.Landmarks[0].Pos
	}
	for east := 250.0; east < 20000; east += 97 {
		for north := -800.0; north <= 800; north += 83 {
			p := geo.Offset(base, east, north)
			if !citymap.Island.Contains(p) {
				continue
			}
			clear := true
			for _, lm := range city.Landmarks {
				if geo.Equirect(lm.Pos, p) < 200 {
					clear = false
					break
				}
			}
			if clear {
				return p
			}
		}
	}
	return base
}

// popupRecords fabricates n fresh taxis each making one street pickup
// scattered a few meters around site, one per minute starting at t0:
// slow-rolling FREE, a crawl, then occupied and gone — the §4 pickup
// signature, from IDs the organic fleet never uses.
func popupRecords(site geo.Point, n int, t0 time.Time) []mdt.Record {
	rng := rand.New(rand.NewSource(5))
	recs := make([]mdt.Record, 0, 4*n)
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

func main() {
	out := flag.String("o", "-", "output file ('-' for stdout)")
	format := flag.String("format", "text", "output format: text or store")
	seed := flag.Int64("seed", 1, "random seed")
	scale := flag.Float64("scale", 1.0, "city scale (1.0 = ~190 landmarks)")
	taxis := flag.Int("taxis", 0, "fleet size (0 = sized to the city)")
	surge := flag.Int("surge", 1, "fleet multiplier: replay a demand-shock day (10 = the 10x airport-surge scenario)")
	popup := flag.Int("popup", 0, "inject N fabricated pickups at a pop-up site (away from every landmark) starting mid-duration — exercises live spot discovery")
	duration := flag.Duration("duration", 24*time.Hour, "simulated duration")
	date := flag.String("date", "2026-01-05", "start date (YYYY-MM-DD, midnight)")
	faults := flag.Bool("faults", true, "inject the §6.1.1 error modes")
	cityIn := flag.String("city", "", "load the landmark registry from this JSON file instead of generating one")
	cityOut := flag.String("savecity", "", "write the landmark registry used to this JSON file")
	streamURL := flag.String("stream", "", "replay the feed to this /ingest URL instead of writing a file")
	rate := flag.Float64("rate", 0, "records per second when streaming (0 = as fast as possible)")
	batch := flag.Int("batch", 500, "records per POST when streaming")
	encoding := flag.String("encoding", "binary", "wire encoding when streaming: binary or json")
	flush := flag.Bool("flush", true, "POST <stream>/flush after the feed so every slot is finalized")
	stats := flag.Bool("stats", false, "print <stream>/stats after streaming (server-side accept/reject view)")
	flag.Parse()

	start, err := time.Parse("2006-01-02", *date)
	if err != nil {
		log.Fatalf("bad -date: %v", err)
	}
	var city *citymap.Map
	if *cityIn != "" {
		f, err := os.Open(*cityIn)
		if err != nil {
			log.Fatal(err)
		}
		city, err = citymap.Load(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		city = citymap.Generate(*seed, *scale)
	}
	if *cityOut != "" {
		f, err := os.Create(*cityOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := city.Save(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if *surge < 1 {
		log.Fatalf("bad -surge %d: the multiplier must be >= 1", *surge)
	}
	fleet := *taxis
	if *surge > 1 {
		// The surge scenario multiplies whatever fleet would have run: the
		// explicit -taxis value, or the city-sized default — same seed, same
		// city, just N times the taxis, so a surge day is exactly
		// reproducible and directly comparable to its 1x baseline.
		if fleet == 0 {
			fleet = sim.DefaultFleet(city)
		}
		fleet *= *surge
		fmt.Fprintf(os.Stderr, "mdtgen: surge x%d: %d taxis\n", *surge, fleet)
	}
	res := sim.Run(sim.Config{
		Seed:         *seed,
		Start:        start.UTC(),
		Duration:     *duration,
		NumTaxis:     fleet,
		City:         city,
		InjectFaults: *faults,
	})

	if *popup > 0 {
		site := popupSite(city)
		t0 := start.UTC().Add(*duration / 2)
		res.Records = append(res.Records, popupRecords(site, *popup, t0)...)
		// Restore global timestamp order; a stable sort keeps every taxi's
		// own records in sequence.
		sort.SliceStable(res.Records, func(i, j int) bool {
			return res.Records[i].Time.Before(res.Records[j].Time)
		})
		fmt.Fprintf(os.Stderr, "mdtgen: popup: %d pickups at (%.5f, %.5f) from %s\n",
			*popup, site.Lat, site.Lon, t0.Format(time.RFC3339))
	}

	if *streamURL != "" {
		cl, err := streamFeed(*streamURL, res.Records, *rate, *batch, *encoding)
		if err != nil {
			log.Fatal(err)
		}
		if *flush {
			if err := cl.Flush(context.Background()); err != nil {
				log.Fatal(err)
			}
		}
		if *stats {
			raw, err := cl.Stats(context.Background())
			if err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "mdtgen: server stats: %s\n", raw)
		}
		return
	}

	switch *format {
	case "text":
		w := os.Stdout
		if *out != "-" {
			f, err := os.Create(*out)
			if err != nil {
				log.Fatal(err)
			}
			defer func() {
				if err := f.Close(); err != nil {
					log.Fatal(err)
				}
			}()
			w = f
		}
		if err := mdt.WriteText(w, res.Records); err != nil {
			log.Fatal(err)
		}
	case "store":
		st := store.New()
		if err := st.AppendAll(res.Records); err != nil {
			log.Fatal(err)
		}
		if *out == "-" {
			if err := st.Save(os.Stdout); err != nil {
				log.Fatal(err)
			}
		} else if err := st.SaveFile(*out); err != nil {
			// Atomic temp-file + rename: a crash never leaves a torn file.
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown -format %q (want text or store)", *format)
	}
	fmt.Fprintf(os.Stderr, "mdtgen: %d records from %d taxis over %v (faults: %d)\n",
		len(res.Records), res.Config.NumTaxis, *duration, res.Stats.InjectedFaults)
}
