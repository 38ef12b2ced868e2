package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"time"

	"taxiqueue/internal/core"
	"taxiqueue/internal/ingest"
	"taxiqueue/internal/mdt"
)

// endpoint is one read endpoint of queued.
type endpoint int

const (
	epSpots endpoint = iota
	epContext
	epRecommend
	epForecast
	epEstimate
	epHistory
	epHeatmap
	epHeatmapRange
	epTransitions
	numEndpoints
)

var endpointNames = [numEndpoints]string{
	"spots", "context", "recommend", "forecast", "estimate",
	"history", "heatmap", "heatmap_range", "transitions",
}

func (e endpoint) String() string { return endpointNames[e] }

// weight is one endpoint's share of a read mix.
type weight struct {
	ep endpoint
	w  int
}

// read is one scheduled read request. Only the fields its endpoint uses
// are set; the HTTP run renders it as a URL and the in-process copy calls
// the layer functions with the same values.
type read struct {
	due      time.Duration // from the start of the timed window
	ep       endpoint
	at       time.Time // spots, context, recommend, forecast, heatmap
	spot     int       // forecast, history, transitions
	lat, lon float64   // recommend
	driver   bool      // recommend: for=driver, else commuter
	from, to time.Time // history, heatmap_range
}

// queryTime renders t as an escaped RFC3339 query value.
func queryTime(t time.Time) string { return url.QueryEscape(t.UTC().Format(time.RFC3339)) }

// path renders the request as a queued URL path with query.
func (r read) path() string {
	ts := queryTime
	switch r.ep {
	case epSpots:
		return "/spots?at=" + ts(r.at)
	case epContext:
		return "/context?at=" + ts(r.at)
	case epRecommend:
		aud := "commuter"
		if r.driver {
			aud = "driver"
		}
		return fmt.Sprintf("/recommend?for=%s&lat=%.5f&lon=%.5f&at=%s", aud, r.lat, r.lon, ts(r.at))
	case epForecast:
		return fmt.Sprintf("/forecast?spot=%d&at=%s", r.spot, ts(r.at))
	case epEstimate:
		return "/estimate"
	case epHistory:
		return fmt.Sprintf("/history?spot=%d&from=%s&to=%s", r.spot, ts(r.from), ts(r.to))
	case epHeatmap:
		return "/heatmap?t=" + ts(r.at)
	case epHeatmapRange:
		return "/heatmap?from=" + ts(r.from) + "&to=" + ts(r.to)
	default:
		return fmt.Sprintf("/transitions?spot=%d", r.spot)
	}
}

// planReads draws n reads at a fixed rate: request i is due at i/rate, its
// endpoint drawn by weight from mix. Instants fall mid-slot on the grid's
// day 0, except forecast (up to three days ahead) and the history
// endpoints, which range over the recorded days.
func planReads(rng *rand.Rand, n int, rate float64, mix []weight, grid core.SlotGrid, spots, days int) []read {
	total := 0
	for _, m := range mix {
		total += m.w
	}
	dayLen := time.Duration(grid.Slots) * grid.SlotLen
	slotAt := func(day int) time.Time {
		return grid.Start.Add(time.Duration(day)*dayLen + time.Duration(rng.Intn(grid.Slots))*grid.SlotLen + grid.SlotLen/2)
	}
	span := func() (time.Time, time.Time) {
		n := 1 + rng.Intn(min(5, days))
		from := grid.Start.Add(time.Duration(rng.Intn(days-n+1))*dayLen + time.Duration(rng.Intn(grid.Slots))*grid.SlotLen)
		return from, from.Add(time.Duration(n) * dayLen)
	}
	out := make([]read, n)
	for i := range out {
		k := rng.Intn(total)
		var ep endpoint
		for _, m := range mix {
			if k -= m.w; k < 0 {
				ep = m.ep
				break
			}
		}
		r := read{due: time.Duration(float64(i) / rate * float64(time.Second)), ep: ep}
		switch ep {
		case epSpots, epContext:
			r.at = slotAt(0)
		case epRecommend:
			r.driver = rng.Intn(2) == 0
			r.lat = 1.23 + rng.Float64()*0.22
			r.lon = 103.6 + rng.Float64()*0.39
			r.at = slotAt(0)
		case epForecast:
			r.spot = rng.Intn(spots)
			r.at = slotAt(rng.Intn(4))
		case epHistory:
			r.spot = rng.Intn(spots)
			r.from, r.to = span()
		case epHeatmap:
			r.at = slotAt(rng.Intn(days))
		case epHeatmapRange:
			r.from, r.to = span()
		case epTransitions:
			r.spot = rng.Intn(spots)
		}
		out[i] = r
	}
	return out
}

// batch is one scheduled /ingest POST: a binary-encoded slice of the feed.
// Only the encoded bytes are kept, which the garbage collector need not
// scan while the generator runs.
type batch struct {
	due  time.Duration
	body []byte
}

// feedPlan is a day of records cut into batches and paced by event time.
type feedPlan struct {
	batches []batch
	// closing[k] is the index of the first batch holding a record in slot
	// k+2 or later, which lets slot k close (the stream engine finalizes
	// with a one-slot lag); -1 when no batch does. Only the end-of-feed
	// flush closes the last slots.
	closing []int
}

// recordsBefore keeps the records of recs that happened before end, in
// order, reusing recs' backing array.
func recordsBefore(recs []mdt.Record, end time.Time) []mdt.Record {
	out := recs[:0]
	for _, r := range recs {
		if r.Time.Before(end) {
			out = append(out, r)
		}
	}
	return out
}

// planFeed cuts recs (time-ordered) into batches of size records and
// schedules each when its last record happened, with event time from the
// grid's start running speedup times faster than the wall clock. speedup
// 0 makes every batch due at once (a bulk load).
func planFeed(recs []mdt.Record, size int, grid core.SlotGrid, speedup float64) feedPlan {
	p := feedPlan{closing: make([]int, grid.Slots)}
	for k := range p.closing {
		p.closing[k] = -1
	}
	next := 0 // lowest slot whose closing batch is still unknown
	for lo := 0; lo < len(recs); lo += size {
		b := recs[lo:min(lo+size, len(recs))]
		var due time.Duration
		if speedup > 0 {
			ev := b[len(b)-1].Time.Sub(grid.Start)
			due = time.Duration(float64(max(ev, 0)) / speedup)
		}
		top := -1
		for _, r := range b {
			j := grid.Index(r.Time)
			if j < 0 && !r.Time.Before(grid.Start) {
				j = grid.Slots + 1 // past the grid's end: every slot closes
			}
			top = max(top, j)
		}
		for ; next < grid.Slots && next+2 <= top; next++ {
			p.closing[next] = len(p.batches)
		}
		p.batches = append(p.batches, batch{due: due, body: ingest.EncodeBinary(nil, b)})
	}
	return p
}
