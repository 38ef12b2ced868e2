// Package monitor reproduces the independent vehicle monitor system of
// §6.2.2 (citing Wu et al., MDM 2012): for each monitored taxi-stand area
// it keeps the vehicle count from the count changes it is fed, and serves
// the count and its 60-second series through a RESTful JSON endpoint. The
// per-slot average taxi numbers it reports validate the queue-type labels
// (Table 8). Which vehicles are inside an area is the feeder's business:
// the simulator's ground truth here, a camera system in the paper.
package monitor

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Sample is one observation of the vehicle count inside the monitored area.
type Sample struct {
	Time  time.Time `json:"time"`
	Count int       `json:"count"`
}

// AreaCounter tracks the vehicle count inside one monitored area from a
// change log (every count change is reported once). It is safe for
// concurrent use.
type AreaCounter struct {
	name string

	mu  sync.RWMutex
	log []Sample // non-decreasing time; Count is the value from that instant on
}

// NewAreaCounter creates a counter for the named area.
func NewAreaCounter(name string) *AreaCounter {
	return &AreaCounter{name: name}
}

// Name returns the monitor's name.
func (c *AreaCounter) Name() string { return c.name }

// Observe records that the vehicle count changed to n at time t. Calls must
// be in non-decreasing time order; out-of-order observations are rejected.
func (c *AreaCounter) Observe(t time.Time, n int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.log) > 0 && t.Before(c.log[len(c.log)-1].Time) {
		return fmt.Errorf("monitor: out-of-order observation at %v", t)
	}
	c.log = append(c.log, Sample{Time: t, Count: n})
	return nil
}

// CountAt returns the vehicle count in effect at time t (0 before the first
// observation).
func (c *AreaCounter) CountAt(t time.Time) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	i := sort.Search(len(c.log), func(i int) bool { return c.log[i].Time.After(t) })
	if i == 0 {
		return 0
	}
	return c.log[i-1].Count
}

// Average returns the time-weighted average vehicle count over [from, to).
func (c *AreaCounter) Average(from, to time.Time) float64 {
	if !to.After(from) {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	total := to.Sub(from).Seconds()
	cur := 0
	i := sort.Search(len(c.log), func(i int) bool { return c.log[i].Time.After(from) })
	if i > 0 {
		cur = c.log[i-1].Count
	}
	acc := 0.0
	prev := from
	for ; i < len(c.log) && c.log[i].Time.Before(to); i++ {
		acc += float64(cur) * c.log[i].Time.Sub(prev).Seconds()
		prev = c.log[i].Time
		cur = c.log[i].Count
	}
	acc += float64(cur) * to.Sub(prev).Seconds()
	return acc / total
}

// MinuteSeries returns one sample per minute over [from, to), matching the
// real system's 60-second update cadence.
func (c *AreaCounter) MinuteSeries(from, to time.Time) []Sample {
	var out []Sample
	for t := from; t.Before(to); t = t.Add(time.Minute) {
		out = append(out, Sample{Time: t, Count: c.CountAt(t)})
	}
	return out
}

// Service exposes a set of AreaCounters over HTTP, mimicking the REST web
// service of the deployed monitor system.
type Service struct {
	mu       sync.RWMutex
	counters map[string]*AreaCounter
}

// NewService creates an empty monitor service.
func NewService() *Service {
	return &Service{counters: make(map[string]*AreaCounter)}
}

// Add registers a counter; it replaces any counter with the same name.
func (s *Service) Add(c *AreaCounter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters[c.Name()] = c
}

// Get returns the counter with the given name.
func (s *Service) Get(name string) (*AreaCounter, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.counters[name]
	return c, ok
}

// ServeHTTP implements the JSON API:
//
//	GET /monitors                  -> ["name", ...]
//	GET /monitors/{name}/count?at=RFC3339
//	GET /monitors/{name}/series?from=RFC3339&to=RFC3339
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	const prefix = "/monitors"
	path := r.URL.Path
	if path == prefix || path == prefix+"/" {
		s.mu.RLock()
		names := make([]string, 0, len(s.counters))
		for name := range s.counters {
			names = append(names, name)
		}
		s.mu.RUnlock()
		sort.Strings(names)
		writeJSON(w, names)
		return
	}
	if len(path) <= len(prefix)+1 {
		http.NotFound(w, r)
		return
	}
	rest := path[len(prefix)+1:]
	var name, action string
	if i := lastSlash(rest); i >= 0 {
		name, action = rest[:i], rest[i+1:]
	} else {
		http.NotFound(w, r)
		return
	}
	c, ok := s.Get(name)
	if !ok {
		http.NotFound(w, r)
		return
	}
	switch action {
	case "count":
		at := time.Now()
		if v := r.URL.Query().Get("at"); v != "" {
			t, err := time.Parse(time.RFC3339, v)
			if err != nil {
				http.Error(w, "bad 'at' timestamp", http.StatusBadRequest)
				return
			}
			at = t
		}
		writeJSON(w, Sample{Time: at, Count: c.CountAt(at)})
	case "series":
		from, err1 := time.Parse(time.RFC3339, r.URL.Query().Get("from"))
		to, err2 := time.Parse(time.RFC3339, r.URL.Query().Get("to"))
		if err1 != nil || err2 != nil {
			http.Error(w, "bad 'from'/'to' timestamps", http.StatusBadRequest)
			return
		}
		writeJSON(w, c.MinuteSeries(from, to))
	default:
		http.NotFound(w, r)
	}
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
