package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/clean"
	"taxiqueue/internal/feedclient"
	"taxiqueue/internal/sim"
)

// Config is everything one load run needs; main fills it from flags and
// tests construct it directly.
type Config struct {
	URL      string
	Duration time.Duration
	Clients  int
	Rate     float64 // requests/sec; 0 = closed loop with Clients workers
	Mix      string
	Start    string // optional RFC3339 grid start for 'at' sweeps

	Feed      bool
	FeedScale float64
	FeedSeed  int64
	FeedBatch int

	Seed int64
}

func defaultConfig() Config {
	return Config{
		URL:       "http://localhost:8080",
		Duration:  10 * time.Second,
		Clients:   4,
		Mix:       "spots=4,context=2,recommend=1,estimate=1",
		FeedScale: 0.1,
		FeedSeed:  42,
		FeedBatch: 500,
		Seed:      1,
	}
}

// endpointStat is the reported result for one endpoint of the mix.
type endpointStat struct {
	Name     string  `json:"name"`
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	RPS      float64 `json:"rps"`
	P50ms    float64 `json:"p50_ms"`
	P90ms    float64 `json:"p90_ms"`
	P99ms    float64 `json:"p99_ms"`
	MaxMs    float64 `json:"max_ms"`
}

// Summary is queueload's JSON report.
type Summary struct {
	URL        string         `json:"url"`
	Mode       string         `json:"mode"` // "closed" or "open"
	Clients    int            `json:"clients,omitempty"`
	RateTarget float64        `json:"rate_target,omitempty"`
	DurationS  float64        `json:"duration_s"`
	TotalRPS   float64        `json:"total_rps"`
	Endpoints  []endpointStat `json:"endpoints"`
	FedRecords int            `json:"fed_records,omitempty"`
	FeedErrors int            `json:"feed_errors,omitempty"`
}

// mixEntry is one weighted endpoint of the workload.
type mixEntry struct {
	name   string
	weight int
}

// parseMix reads "spots=4,context=2,..." into weighted entries. A
// negative weight and an all-zero mix each get their own error — both
// used to collapse into messages that named the wrong mistake ("bad
// weight" for a perfectly parsed -3, "empty mix" for a mix with
// entries), which is exactly what a typo'd flag needs spelled out. So
// does a mix whose total weight overflows an int, on which pick would
// panic in every reader.
func parseMix(s string) ([]mixEntry, error) {
	known := map[string]bool{
		"spots": true, "context": true, "recommend": true, "estimate": true,
		"history": true, "heatmap": true, "transitions": true, "forecast": true,
		"wide": true,
	}
	var mix []mixEntry
	entries, total := 0, 0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, ws, found := strings.Cut(part, "=")
		w := 1
		if found {
			var err error
			if w, err = strconv.Atoi(ws); err != nil {
				return nil, fmt.Errorf("bad weight in %q", part)
			}
			if w < 0 {
				return nil, fmt.Errorf("negative weight in %q", part)
			}
		}
		if !known[name] {
			return nil, fmt.Errorf("unknown endpoint %q (want spots|context|recommend|estimate|history|heatmap|transitions|forecast|wide)", name)
		}
		if w > math.MaxInt-total {
			return nil, fmt.Errorf("total weight of mix %q overflows", s)
		}
		entries, total = entries+1, total+w
		if w > 0 {
			mix = append(mix, mixEntry{name, w})
		}
	}
	if len(mix) == 0 {
		if entries > 0 {
			// Every entry parsed but every weight was zero: pick() would
			// divide the workload over nothing.
			return nil, fmt.Errorf("mix %q has zero total weight", s)
		}
		return nil, fmt.Errorf("empty mix %q", s)
	}
	return mix, nil
}

// pick returns the endpoint for one request: weighted selection over the
// mix.
func pick(mix []mixEntry, rng *rand.Rand) string {
	total := 0
	for _, m := range mix {
		total += m.weight
	}
	n := rng.Intn(total)
	for _, m := range mix {
		if n -= m.weight; n < 0 {
			return m.name
		}
	}
	return mix[len(mix)-1].name
}

// recorder accumulates latencies per endpoint.
type recorder struct {
	mu     sync.Mutex
	lat    map[string][]time.Duration
	errors map[string]int
}

func newRecorder() *recorder {
	return &recorder{lat: make(map[string][]time.Duration), errors: make(map[string]int)}
}

func (r *recorder) observe(name string, d time.Duration, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lat[name] = append(r.lat[name], d)
	if !ok {
		r.errors[name]++
	}
}

// percentile returns the p-quantile (0..1) of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// summarize folds the recorder into the report.
func (r *recorder) summarize(elapsed time.Duration) []endpointStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.lat))
	for name := range r.lat {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]endpointStat, 0, len(names))
	for _, name := range names {
		lats := r.lat[name]
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		out = append(out, endpointStat{
			Name:     name,
			Requests: len(lats),
			Errors:   r.errors[name],
			RPS:      float64(len(lats)) / elapsed.Seconds(),
			P50ms:    ms(percentile(lats, 0.50)),
			P90ms:    ms(percentile(lats, 0.90)),
			P99ms:    ms(percentile(lats, 0.99)),
			MaxMs:    ms(percentile(lats, 1.0)),
		})
	}
	return out
}

// reqURL builds the query URL for one request of the mix. spots is the
// target's spot count (for endpoints taking a spot index).
func reqURL(cfg Config, name string, rng *rand.Rand, start time.Time, spots int) string {
	at := ""
	if !start.IsZero() {
		slot := rng.Intn(48)
		t := start.Add(time.Duration(slot)*30*time.Minute + 15*time.Minute)
		at = "at=" + t.UTC().Format(time.RFC3339)
	}
	spot := 0
	if spots > 0 {
		spot = rng.Intn(spots)
	}
	switch name {
	case "spots", "context":
		u := cfg.URL + "/" + name
		if at != "" {
			u += "?" + at
		}
		return u
	case "estimate":
		return cfg.URL + "/estimate"
	case "history":
		// Range scan: a random window of slots within the day (the whole
		// recorded range when no -start is given).
		u := fmt.Sprintf("%s/history?spot=%d", cfg.URL, spot)
		if !start.IsZero() {
			a := rng.Intn(48)
			span := 1 + rng.Intn(48-a)
			from := start.Add(time.Duration(a) * 30 * time.Minute)
			to := from.Add(time.Duration(span) * 30 * time.Minute)
			u += "&from=" + from.UTC().Format(time.RFC3339) + "&to=" + to.UTC().Format(time.RFC3339)
		}
		return u
	case "heatmap":
		u := cfg.URL + "/heatmap"
		if !start.IsZero() {
			slot := rng.Intn(48)
			t := start.Add(time.Duration(slot)*30*time.Minute + 15*time.Minute)
			u += "?t=" + t.UTC().Format(time.RFC3339)
		}
		return u
	case "transitions":
		return fmt.Sprintf("%s/transitions?spot=%d", cfg.URL, spot)
	case "wide":
		// Dashboard-shaped analytics: a multi-day /history span for one
		// spot, or a city-wide /heatmap range aggregate — the queries the
		// summary fast path serves from stored block summaries. Without
		// -start the "everything recorded" forms are used (epoch from clamps
		// to the grid start server-side).
		if start.IsZero() {
			if rng.Intn(2) == 0 {
				return fmt.Sprintf("%s/history?spot=%d", cfg.URL, spot)
			}
			return cfg.URL + "/heatmap?from=1970-01-01T00:00:00Z"
		}
		from := start.Add(time.Duration(rng.Intn(48)) * 30 * time.Minute)
		to := from.Add(time.Duration(1+rng.Intn(3)) * 24 * time.Hour)
		span := "from=" + from.UTC().Format(time.RFC3339) + "&to=" + to.UTC().Format(time.RFC3339)
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("%s/history?spot=%d&%s", cfg.URL, spot, span)
		}
		return cfg.URL + "/heatmap?" + span
	case "forecast":
		// A future instant: the profile table answers for any day, so sweep
		// a few days ahead of the grid start (wall-clock "now" when no
		// -start is given — the server clamps it into the grid itself).
		u := fmt.Sprintf("%s/forecast?spot=%d", cfg.URL, spot)
		if !start.IsZero() {
			day := rng.Intn(4)
			slot := rng.Intn(48)
			t := start.Add(time.Duration(day)*24*time.Hour + time.Duration(slot)*30*time.Minute + 15*time.Minute)
			u += "&at=" + t.UTC().Format(time.RFC3339)
		}
		return u
	default: // recommend
		aud := "driver"
		if rng.Intn(2) == 1 {
			aud = "commuter"
		}
		lat := 1.23 + rng.Float64()*0.22
		lon := 103.6 + rng.Float64()*0.39
		u := fmt.Sprintf("%s/recommend?for=%s&lat=%.5f&lon=%.5f", cfg.URL, aud, lat, lon)
		if at != "" {
			u += "&" + at
		}
		return u
	}
}

// run executes the workload and returns the report.
func run(cfg Config, rng *rand.Rand) (Summary, error) {
	mix, err := parseMix(cfg.Mix)
	if err != nil {
		return Summary{}, err
	}
	var start time.Time
	if cfg.Start != "" {
		if start, err = time.Parse(time.RFC3339, cfg.Start); err != nil {
			return Summary{}, fmt.Errorf("bad -start: %w", err)
		}
	}
	client := &http.Client{Timeout: 10 * time.Second}
	// One readiness probe so a dead target fails fast instead of filling
	// the report with connection errors.
	resp, err := client.Get(cfg.URL + "/healthz")
	if err != nil {
		return Summary{}, fmt.Errorf("target not reachable: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// Probe the spot count once so the per-spot endpoints (history,
	// transitions) draw valid indexes.
	spots := 0
	if resp, err := client.Get(cfg.URL + "/spots"); err == nil {
		var arr []json.RawMessage
		if json.NewDecoder(resp.Body).Decode(&arr) == nil {
			spots = len(arr)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	rec := newRecorder()
	runStart := time.Now()
	deadline := runStart.Add(cfg.Duration)
	feedCtx, stopFeed := context.WithCancel(context.Background())
	defer stopFeed()
	var wg sync.WaitGroup

	fetch := func(name, url string) {
		t0 := time.Now()
		resp, err := client.Get(url)
		ok := err == nil && resp.StatusCode == 200
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		rec.observe(name, time.Since(t0), ok)
	}

	var fed, feedErrs int
	if cfg.Feed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fed, feedErrs = feedLoop(feedCtx, cfg, client)
		}()
	}

	mode := "closed"
	if cfg.Rate > 0 {
		mode = "open"
		// Open loop: arrivals on a fixed schedule, each served by its own
		// goroutine so a slow response never delays the next arrival.
		wg.Add(1)
		go func() {
			defer wg.Done()
			interval := time.Duration(float64(time.Second) / cfg.Rate)
			tick := time.NewTicker(interval)
			defer tick.Stop()
			seq := rand.New(rand.NewSource(rng.Int63()))
			var reqWG sync.WaitGroup
			defer reqWG.Wait()
			for time.Now().Before(deadline) {
				<-tick.C
				name := pick(mix, seq)
				url := reqURL(cfg, name, seq, start, spots)
				reqWG.Add(1)
				go func() { defer reqWG.Done(); fetch(name, url) }()
			}
		}()
	} else {
		for c := 0; c < cfg.Clients; c++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				seq := rand.New(rand.NewSource(seed))
				for time.Now().Before(deadline) {
					name := pick(mix, seq)
					fetch(name, reqURL(cfg, name, seq, start, spots))
				}
			}(rng.Int63())
		}
	}

	wgWaitReaders(&wg, stopFeed, deadline)
	elapsed := time.Since(runStart)

	sum := Summary{
		URL:        cfg.URL,
		Mode:       mode,
		DurationS:  cfg.Duration.Seconds(),
		Endpoints:  rec.summarize(elapsed),
		FedRecords: fed,
		FeedErrors: feedErrs,
	}
	if mode == "closed" {
		sum.Clients = cfg.Clients
	} else {
		sum.RateTarget = cfg.Rate
	}
	for _, ep := range sum.Endpoints {
		sum.TotalRPS += ep.RPS
	}
	return sum, nil
}

// wgWaitReaders stops the feeder once the read deadline passes, then waits
// for everything.
func wgWaitReaders(wg *sync.WaitGroup, stopFeed context.CancelFunc, deadline time.Time) {
	if d := time.Until(deadline); d > 0 {
		time.Sleep(d)
	}
	stopFeed()
	wg.Wait()
}

// feedLoop replays a simulated, cleaned MDT day into /ingest in
// JSON-lines batches through feedclient, shifting each lap by +24h to
// preserve per-taxi time order, until ctx ends. feedclient re-sends what a
// 429 left unprocessed and retries transport errors and 5xx answers.
// Returns how many records the server consumed, and 1 when the feed
// stopped on an error rather than on ctx.
func feedLoop(ctx context.Context, cfg Config, client *http.Client) (fed, errs int) {
	out := sim.Run(sim.Config{Seed: cfg.FeedSeed, City: citymap.Generate(cfg.FeedSeed, cfg.FeedScale)})
	day, _ := clean.Compact(out.Records, clean.Config{ValidFrame: citymap.Island})
	if len(day) == 0 {
		return 0, 0
	}
	fc, err := feedclient.New(feedclient.Config{
		URL:        cfg.URL + "/ingest",
		BatchSize:  cfg.FeedBatch,
		Encoding:   "json",
		HTTPClient: client,
	})
	if err != nil {
		return 0, 1
	}
	for lap := 0; ; lap++ {
		if lap > 0 {
			for j := range day {
				day[j].Time = day[j].Time.Add(24 * time.Hour)
			}
		}
		rep, err := fc.Stream(ctx, day)
		fed += rep.Sent
		if err != nil {
			if ctx.Err() == nil {
				errs++
			}
			return fed, errs
		}
	}
}
