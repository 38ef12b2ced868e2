package main

import (
	"encoding/json"
	"log"
	"net/http"
	"strconv"
	"time"

	"taxiqueue/internal/core"
	"taxiqueue/internal/forecast"
	"taxiqueue/internal/obs"
)

// forecastServer serves the ROADMAP-item-3 question — "what will the
// queue be at 18:30?" — off the learner's published profile table:
//
//	GET /forecast?spot=N[&at=RFC3339]   expected label, queue length, wait
//
// The handler is lock-free: one atomic table load, then a pure evaluation
// over immutable memory. There is no response cache — `at` is an
// arbitrary future instant, so the parameter space doesn't bucket the way
// the point-lookup endpoints do, and an evaluation is a few hundred
// nanoseconds anyway.
type forecastServer struct {
	fc *forecast.Learner
}

// newForecastLearner opens an empty forecast learner for the analyzed
// day's grid and spot set.
func newForecastLearner(res *core.Result, reg *obs.Registry) (*forecast.Learner, error) {
	_, ths := spotsAndThresholds(res)
	return forecast.Open(forecast.Config{
		Grid:       res.Config.Grid,
		Spots:      len(res.Spots),
		Thresholds: ths,
		Metrics:    reg,
	})
}

// forecastJSON is the /forecast payload.
type forecastJSON struct {
	Spot    int       `json:"spot"`
	T       time.Time `json:"t"`
	Day     int       `json:"day"`
	Slot    int       `json:"slot"`
	Context string    `json:"context"`
	QLen    float64   `json:"q_len"`
	WaitS   float64   `json:"wait_s"`
	Source  string    `json:"source"`
	Weight  float64   `json:"weight"` // effective observed days behind the answer
}

// handleForecast evaluates one spot's expected queue state at a (usually
// future) instant. `at` defaults to now, clamped to the grid start so a
// wall clock behind the simulated grid still answers.
func (f *forecastServer) handleForecast(w http.ResponseWriter, r *http.Request) {
	t := f.fc.Table()
	if t.Spots() == 0 {
		// A batch run that detected no spots leaves nothing to forecast;
		// the old path answered "need spot=0..-1", a hint no request could
		// ever satisfy.
		http.Error(w, "no spots detected", http.StatusServiceUnavailable)
		return
	}
	q := r.URL.Query()
	spot, err := strconv.Atoi(q.Get("spot"))
	if err != nil || spot < 0 || spot >= t.Spots() {
		http.Error(w, "need spot=0.."+strconv.Itoa(t.Spots()-1), http.StatusBadRequest)
		return
	}
	var at time.Time
	if s := q.Get("at"); s != "" {
		at, err = time.Parse(time.RFC3339, s)
		if err != nil {
			http.Error(w, "bad 'at'", http.StatusBadRequest)
			return
		}
	} else {
		at = time.Now()
		if start := f.fc.Grid().Start; at.Before(start) {
			at = start
		}
	}
	fc, ok := t.Forecast(spot, at)
	if !ok {
		http.Error(w, "'at' precedes the grid", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	err = json.NewEncoder(w).Encode(forecastJSON{
		Spot: spot, T: fc.Time, Day: fc.Day, Slot: fc.Slot,
		Context: fc.Label.String(), QLen: fc.QLen, WaitS: fc.Wait.Seconds(),
		Source: fc.Source.String(), Weight: fc.Weight,
	})
	if err != nil {
		log.Printf("encode: %v", err)
	}
}

// registerForecast mounts the forecast endpoint.
func registerForecast(mux *http.ServeMux, f *forecastServer) {
	mux.HandleFunc("/forecast", f.handleForecast)
}
