package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"taxiqueue/internal/core"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/history"
)

// FuzzParseCoord: parseCoord never panics, and a value it accepts is
// finite and within ±limit, for the latitude and longitude limits.
func FuzzParseCoord(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		for _, limit := range []float64{90, 180} {
			if v, ok := parseCoord(s, limit); ok && (math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > limit) {
				t.Fatalf("parseCoord(%q, %v) accepted %v", s, limit, v)
			}
		}
	})
}

// FuzzRangeParams: fuzzed from/to values sent to /history and to the range
// form of /heatmap, over a memory-only history store of two spots with one
// recorded day, never panic and answer 200 or 400; a 200 never reports a
// range whose from is after its to.
func FuzzRangeParams(f *testing.F) {
	grid := core.DaySlots(time.Date(2026, 1, 5, 0, 0, 0, 0, time.UTC))
	hist, err := history.Open(history.Config{
		Grid:       grid,
		Spots:      []core.QueueSpot{{Pos: geo.Point{Lat: 1.30, Lon: 103.80}}, {Pos: geo.Point{Lat: 1.35, Lon: 103.90}}},
		Thresholds: make([]core.Thresholds, 2),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { hist.Close() })
	err = hist.AppendSlots(0, 0, grid.Slots, func(spot, slot int) (core.SlotFeatures, core.QueueType) {
		return core.SlotFeatures{TWait: time.Duration(slot) * time.Second, NArr: float64(spot + slot%3), NDep: 1}, core.QueueType(slot % 4)
	})
	if err != nil {
		f.Fatal(err)
	}
	mux := http.NewServeMux()
	registerHistory(mux, &historyServer{hist: hist})
	f.Fuzz(func(t *testing.T, from, to string) {
		q := url.Values{"from": {from}, "to": {to}}.Encode()
		for _, u := range []string{"/history?spot=0&" + q, "/heatmap?" + q} {
			w := httptest.NewRecorder()
			mux.ServeHTTP(w, httptest.NewRequest("GET", u, nil))
			switch w.Code {
			case http.StatusBadRequest:
			case http.StatusOK:
				var got struct{ From, To time.Time }
				if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
					t.Fatalf("%s: 200 with body %q: %v", u, w.Body, err)
				}
				if got.From.After(got.To) {
					t.Fatalf("%s: 200 for from %v after to %v", u, got.From, got.To)
				}
			default:
				t.Fatalf("%s: status %d, want 200 or 400", u, w.Code)
			}
		}
	})
}
