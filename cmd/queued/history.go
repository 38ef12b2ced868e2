package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"

	"taxiqueue/internal/core"
	"taxiqueue/internal/history"
	"taxiqueue/internal/obs"
)

// historyServer serves the analytics endpoints off the history store's
// lock-free published index:
//
//	GET /history?spot=N[&from=RFC3339][&to=RFC3339]   decoded per-slot series
//	GET /heatmap[?t=RFC3339]                          tiled city intensity at one slot
//	GET /heatmap?from=RFC3339&to=RFC3339              city-wide range aggregate, served
//	                                                  from block summaries (no decode)
//	GET /transitions?spot=N                           day-over-day label transition matrix
//
// Every request costs one atomic index load plus the scan itself; there
// is no response cache here — the parameter space (arbitrary ranges and
// instants) doesn't bucket the way the point-lookup endpoints do, and the
// block summaries already keep a scan proportional to the data it
// returns.
type historyServer struct {
	hist *history.Store
}

// newHistoryStore opens (or recovers) the history store for the analyzed
// day's grid and spot set.
func newHistoryStore(dir string, res *core.Result, reg *obs.Registry) (*history.Store, error) {
	spots, ths := spotsAndThresholds(res)
	return history.Open(history.Config{
		Grid:       res.Config.Grid,
		Spots:      spots,
		Thresholds: ths,
		Amplify:    res.Config.Amplify,
		Dir:        dir,
		Metrics:    reg,
	})
}

// historyPointJSON is one slot of the /history series.
type historyPointJSON struct {
	T       time.Time `json:"t"`
	Day     int       `json:"day"`
	Slot    int       `json:"slot"`
	Context string    `json:"context"`
	Empty   bool      `json:"empty,omitempty"`
	TWaitS  float64   `json:"t_wait_s"`
	NArr    float64   `json:"n_arr"`
	QLen    float64   `json:"q_len"`
	TDepS   float64   `json:"t_dep_s"`
	NDep    float64   `json:"n_dep"`
}

// spotParam parses a required non-negative spot index. A store built from
// a batch run that detected no spots at all answers 503 for every index —
// there is nothing to query yet, and the old "need spot=0..-1" hint was
// nonsense.
func (h *historyServer) spotParam(w http.ResponseWriter, r *http.Request) (int, bool) {
	if h.hist.Spots() == 0 {
		http.Error(w, "no spots detected", http.StatusServiceUnavailable)
		return 0, false
	}
	spot, err := strconv.Atoi(r.URL.Query().Get("spot"))
	if err != nil || spot < 0 || spot >= h.hist.Spots() {
		http.Error(w, fmt.Sprintf("need spot=0..%d", h.hist.Spots()-1), http.StatusBadRequest)
		return 0, false
	}
	return spot, true
}

// rangeParams parses the optional from/to pair shared by /history and the
// range form of /heatmap: from defaults to the grid start, to defaults to
// just past the newest final slot (or from, when nothing is recorded yet).
// A parse failure or an inverted range answers the request itself and
// returns ok=false — answering an inverted range with an empty 200 hid
// typos (swapped from/to, wrong day) from callers.
func (h *historyServer) rangeParams(w http.ResponseWriter, r *http.Request) (from, to time.Time, ok bool) {
	q := r.URL.Query()
	grid := h.hist.Grid()
	from = grid.Start
	if s := q.Get("from"); s != "" {
		t, err := time.Parse(time.RFC3339, s)
		if err != nil {
			http.Error(w, "bad 'from'", http.StatusBadRequest)
			return from, to, false
		}
		from = t
	}
	if s := q.Get("to"); s != "" {
		t, err := time.Parse(time.RFC3339, s)
		if err != nil {
			http.Error(w, "bad 'to'", http.StatusBadRequest)
			return from, to, false
		}
		to = t
	} else if day, slot, ok := h.hist.Latest(); ok {
		to = h.hist.TimeOf(day, slot).Add(grid.SlotLen)
	} else {
		to = from // nothing recorded: empty range
	}
	if to.Before(from) {
		http.Error(w, "'from' after 'to'", http.StatusBadRequest)
		return from, to, false
	}
	return from, to, true
}

// handleHistory decodes one spot's series. Without from/to the range
// defaults to everything recorded (grid start through the newest final
// slot).
func (h *historyServer) handleHistory(w http.ResponseWriter, r *http.Request) {
	spot, ok := h.spotParam(w, r)
	if !ok {
		return
	}
	from, to, ok := h.rangeParams(w, r)
	if !ok {
		return
	}

	pts := h.hist.Series(spot, from, to)
	out := struct {
		Spot   int                `json:"spot"`
		From   time.Time          `json:"from"`
		To     time.Time          `json:"to"`
		Points []historyPointJSON `json:"points"`
	}{Spot: spot, From: from, To: to, Points: make([]historyPointJSON, len(pts))}
	for i, p := range pts {
		out.Points[i] = historyPointJSON{
			T: p.Time, Day: p.Day, Slot: p.Slot,
			Context: p.Label.String(), Empty: p.Empty,
			TWaitS: p.Feats.TWait.Seconds(), NArr: p.Feats.NArr, QLen: p.Feats.QLen,
			TDepS: p.Feats.TDep.Seconds(), NDep: p.Feats.NDep,
		}
	}
	writeHistoryJSON(w, out)
}

// handleHeatmap serves the tiled intensity grid for the slot containing
// t (default: the newest final slot). With from/to it instead serves the
// city-wide aggregate over the range — the summary fast path: blocks the
// range fully covers fold straight from their stored summaries, nothing
// decodes.
func (h *historyServer) handleHeatmap(w http.ResponseWriter, r *http.Request) {
	if q := r.URL.Query(); q.Get("from") != "" || q.Get("to") != "" {
		h.handleHeatmapRange(w, r)
		return
	}
	at := time.Time{}
	if s := r.URL.Query().Get("t"); s != "" {
		t, err := time.Parse(time.RFC3339, s)
		if err != nil {
			http.Error(w, "bad 't'", http.StatusBadRequest)
			return
		}
		at = t
	} else if day, slot, ok := h.hist.Latest(); ok {
		at = h.hist.TimeOf(day, slot)
	} else {
		http.Error(w, "no history yet", http.StatusServiceUnavailable)
		return
	}
	hm, ok := h.hist.Heatmap(at)
	if !ok {
		// A t outside the recorded grid (or at a slot no final data has
		// reached) is a legitimate question with a boring answer: serve an
		// empty-but-valid heatmap — same schema, zero tiles — instead of an
		// error a dashboard would have to special-case.
		hm = h.hist.EmptyHeatmap(at)
	}
	writeHistoryJSON(w, hm)
}

// handleHeatmapRange serves /heatmap?from=..&to=..: the summary-served
// aggregate over the range, with the label distribution keyed by name the
// same way /transitions reports its matrix axes. A range entirely before
// the grid (or empty after clamping) is a client mistake, not a boring
// answer: 400.
func (h *historyServer) handleHeatmapRange(w http.ResponseWriter, r *http.Request) {
	from, to, ok := h.rangeParams(w, r)
	if !ok {
		return
	}
	sum, ok := h.hist.RangeSummary(from, to)
	if !ok {
		http.Error(w, "empty range", http.StatusBadRequest)
		return
	}
	labels := make([]string, len(sum.Labels))
	for i := range labels {
		labels[i] = core.QueueType(i).String()
	}
	writeHistoryJSON(w, struct {
		history.RangeSummary
		LabelNames []string `json:"label_names"`
	}{sum, labels})
}

// handleTransitions serves one spot's day-over-day label transition
// matrix.
func (h *historyServer) handleTransitions(w http.ResponseWriter, r *http.Request) {
	spot, ok := h.spotParam(w, r)
	if !ok {
		return
	}
	m := h.hist.Transitions(spot)
	labels := make([]string, len(m.Counts))
	for i := range labels {
		labels[i] = core.QueueType(i).String()
	}
	writeHistoryJSON(w, struct {
		history.TransitionMatrix
		LabelNames []string `json:"label_names"`
	}{m, labels})
}

func writeHistoryJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("encode: %v", err)
	}
}

// registerHistory mounts the analytics endpoints.
func registerHistory(mux *http.ServeMux, h *historyServer) {
	mux.HandleFunc("/history", h.handleHistory)
	mux.HandleFunc("/heatmap", h.handleHeatmap)
	mux.HandleFunc("/transitions", h.handleTransitions)
}
