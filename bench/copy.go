package main

import (
	"fmt"
	"time"

	"taxiqueue/internal/core"
	"taxiqueue/internal/forecast"
	"taxiqueue/internal/geo"
	"taxiqueue/internal/ingest"
	"taxiqueue/internal/mdt"
	"taxiqueue/internal/recommend"
)

// The in-process copy replays a run's operations against a replica,
// calling the layer functions queued's handlers call with the same
// arguments. It skips what only the server does (HTTP, routing, the
// render cache and JSON encoding), so a client latency minus the copy's
// time for the same request is the queued edge.

// replay runs reads and batches in due-time order, unpaced: a batch is
// decoded and accepted as the /ingest handler would, and each read runs
// twice, once untraced and once traced, alternating which goes first so
// neither always meets the warmer caches. It returns the total time of
// the untraced and of the traced read executions, and when each batch's
// Accept started.
func (r *replica) replay(reads []read, batches []batch, tr *tracer) (plain, traced time.Duration, accepted []time.Time, err error) {
	accepted = make([]time.Time, len(batches))
	i, j := 0, 0
	for i < len(reads) || j < len(batches) {
		if j < len(batches) && (i == len(reads) || batches[j].due <= reads[i].due) {
			req := int64(1_000_000 + j)
			root := tr.begin("ingest.post", req, spanRef{})
			var recs []mdt.Record
			tr.timed("ingest.decode", req, root, func() { recs, err = decodeBatch(batches[j].body) })
			if err != nil {
				return 0, 0, nil, err
			}
			accepted[j] = time.Now()
			tr.timed("ingest.Accept", req, root, func() { _, err = r.svc.Accept(recs) })
			root.end()
			if err != nil {
				return 0, 0, nil, err
			}
			j++
			continue
		}
		for k := 0; k < 2; k++ {
			t := tr
			if (i+k)%2 == 0 {
				t = nil
			}
			t0 := time.Now()
			if err := r.serve(reads[i], t, int64(i+1)); err != nil {
				return 0, 0, nil, err
			}
			if t == nil {
				plain += time.Since(t0)
			} else {
				traced += time.Since(t0)
			}
		}
		i++
	}
	return plain, traced, accepted, nil
}

// serve answers one read in process.
func (r *replica) serve(q read, tr *tracer, req int64) error {
	root := tr.begin("read."+q.ep.String(), req, spanRef{})
	defer root.end()
	grid := r.res.Config.Grid
	if (q.ep == epSpots || q.ep == epContext || q.ep == epEstimate) && r.svc == nil ||
		(q.ep >= epHistory && r.hist == nil) {
		return fmt.Errorf("copy: %s needs a layer this replica lacks", q.ep)
	}
	switch q.ep {
	case epSpots, epContext:
		var snap *ingest.Snapshot
		tr.timed("ingest.Snapshot", req, root, func() { snap = r.svc.Snapshot() })
		slot := grid.Index(q.at)
		tr.timed("ingest.Snapshot.Context", req, root, func() {
			for spot := range r.res.Spots {
				_, lb, _ := snap.Context(spot, slot)
				r.observed += int(lb)
			}
		})
	case epEstimate:
		tr.timed("ingest.Estimate", req, root, func() { r.observed += r.svc.Estimate().Slot })
	case epRecommend:
		tbl := r.fc.Table()
		aud := recommend.ForCommuter
		if q.driver {
			aud = recommend.ForDriver
		}
		rec := tr.begin("recommend.Recommend", req, root)
		opts := recommend.Options{Forecast: func(spot int, when time.Time) (core.QueueType, float64, time.Duration, bool) {
			sp := tr.begin("forecast.Forecast", req, rec)
			f, ok := tbl.Forecast(spot, when)
			sp.end()
			if !ok || f.Source == forecast.SourceNone {
				return core.Unidentified, 0, 0, false
			}
			return f.Label, f.QLen, f.Wait, true
		}}
		r.observed += len(recommend.Recommend(r.res, aud, geo.Point{Lat: q.lat, Lon: q.lon}, q.at, opts))
		rec.end()
	case epForecast:
		tr.timed("forecast.Forecast", req, root, func() {
			f, _ := r.fc.Table().Forecast(q.spot, q.at)
			r.observed += f.Slot
		})
	case epHistory:
		tr.timed("history.Series", req, root, func() { r.observed += len(r.hist.Series(q.spot, q.from, q.to)) })
	case epHeatmap:
		tr.timed("history.Heatmap", req, root, func() {
			hm, ok := r.hist.Heatmap(q.at)
			if !ok {
				hm = r.hist.EmptyHeatmap(q.at)
			}
			r.observed += len(hm.Tiles)
		})
	case epHeatmapRange:
		tr.timed("history.RangeSummary", req, root, func() {
			s, _ := r.hist.RangeSummary(q.from, q.to)
			r.observed += s.Stored
		})
	case epTransitions:
		tr.timed("history.Transitions", req, root, func() { r.observed += len(r.hist.Transitions(q.spot).Counts) })
	}
	return nil
}
