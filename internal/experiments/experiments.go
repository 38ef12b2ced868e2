// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) against the simulated substrate. Each experiment returns
// structured data plus a rendered report; cmd/experiments prints them and
// the root bench_test.go wraps them in testing.B benchmarks.
package experiments

import (
	"math/rand"
	"sort"
	"time"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/clean"
	"taxiqueue/internal/cluster"
	"taxiqueue/internal/core"
	"taxiqueue/internal/dispatch"
	"taxiqueue/internal/sim"
)

// Config sizes the experiment suite.
type Config struct {
	// Seed drives the synthetic city and every simulated day.
	Seed int64
	// CityScale scales the landmark count; 1.0 reproduces the paper's
	// ~180-spot Singapore, smaller values keep benchmarks fast.
	CityScale float64
	// Eps/MinPts are the production DBSCAN parameters (paper: 15 m / 50).
	Eps    float64
	MinPts int
	// ContextSpots is how many randomly selected queue spots feed the
	// context experiments (paper: 25).
	ContextSpots int
}

func (c Config) withDefaults() Config {
	if c.CityScale == 0 {
		c.CityScale = 1.0
	}
	if c.Eps == 0 {
		c.Eps = 15
	}
	if c.MinPts == 0 {
		c.MinPts = 50
	}
	if c.ContextSpots == 0 {
		c.ContextSpots = 25
	}
	return c
}

// Day is one simulated-and-analyzed day.
type Day struct {
	Weekday    time.Weekday
	Start      time.Time
	Grid       core.SlotGrid
	CleanStats clean.Stats
	Result     *core.Result
	Truth      *sim.Truth
	SimStats   sim.Stats
	Dispatcher *dispatch.Dispatcher
}

// Suite owns the synthetic city and lazily simulates one day per weekday.
// All experiments share the same suite so a full run simulates exactly 7
// days.
type Suite struct {
	Cfg  Config
	City *citymap.Map
	days [7]*Day // indexed by time.Weekday (0 = Sunday)
}

// NewSuite builds the city for cfg.
func NewSuite(cfg Config) *Suite {
	cfg = cfg.withDefaults()
	return &Suite{Cfg: cfg, City: citymap.Generate(cfg.Seed, cfg.CityScale)}
}

// monday is the base date: day d of the suite is monday + (d-Monday) days.
var monday = time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC)

// startFor returns the midnight whose weekday is wd, within the base week.
func startFor(wd time.Weekday) time.Time {
	offset := (int(wd) - int(time.Monday) + 7) % 7
	return monday.AddDate(0, 0, offset)
}

// Day simulates (once) and returns the given weekday.
func (s *Suite) Day(wd time.Weekday) (*Day, error) {
	if d := s.days[wd]; d != nil {
		return d, nil
	}
	start := startFor(wd)
	out := sim.Run(sim.Config{
		Seed:         s.Cfg.Seed + int64(wd)*1000,
		Start:        start,
		City:         s.City,
		InjectFaults: true,
	})
	cleaned, cleanStats := clean.Clean(out.Records, clean.Config{ValidFrame: citymap.Island})
	ecfg := core.DefaultEngineConfig()
	ecfg.Detector.Cluster = cluster.Params{EpsMeters: s.Cfg.Eps, MinPoints: s.Cfg.MinPts}
	ecfg.Grid = core.DaySlots(start)
	engine, err := core.NewEngine(ecfg)
	if err != nil {
		return nil, err
	}
	res, err := engine.Analyze(cleaned)
	if err != nil {
		return nil, err
	}
	d := &Day{
		Weekday:    wd,
		Start:      start,
		Grid:       ecfg.Grid,
		CleanStats: cleanStats,
		Result:     res,
		Truth:      out.Truth,
		SimStats:   out.Stats,
		Dispatcher: out.Dispatcher,
	}
	s.days[wd] = d
	return d, nil
}

// Weekdays lists Monday..Sunday in the paper's column order.
var Weekdays = []time.Weekday{
	time.Monday, time.Tuesday, time.Wednesday, time.Thursday,
	time.Friday, time.Saturday, time.Sunday,
}

// DayNames are the short column labels used in Tables 5/Fig 8/Fig 9.
var DayNames = []string{"Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"}

// contextSpotSelection picks the Table 7 spot subset for a day the way the
// paper did — "25 randomly selected queue spots" — deterministically: the
// busiest spot of each zone first (so every zone is covered), then a
// seeded random sample of the rest.
func (s *Suite) contextSpotSelection(res *core.Result, n int) []int {
	if n >= len(res.Spots) {
		idx := make([]int, len(res.Spots))
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	picked := make([]bool, len(res.Spots))
	var out []int
	for z := 0; z < citymap.NumZones; z++ {
		for i, sa := range res.Spots { // spots are sorted by pickup count
			if !picked[i] && sa.Spot.Zone == citymap.Zone(z) {
				picked[i] = true
				out = append(out, i)
				break
			}
		}
	}
	rng := rand.New(rand.NewSource(s.Cfg.Seed + 424242))
	var rest []int
	for i := range res.Spots {
		if !picked[i] {
			rest = append(rest, i)
		}
	}
	rng.Shuffle(len(rest), func(a, b int) { rest[a], rest[b] = rest[b], rest[a] })
	for _, i := range rest {
		if len(out) >= n {
			break
		}
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}
