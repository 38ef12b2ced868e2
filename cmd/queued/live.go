package main

import (
	"net/http"
	"time"

	"taxiqueue/internal/core"
	"taxiqueue/internal/stream"
)

// In live mode the nightly batch run still supplies the spot positions and
// per-spot thresholds, but every context comes from the records POSTed to
// /ingest: the server reads the ingest service's published snapshot, and a
// final cell is only served once no shard can still change it. The /spots
// and /context handlers are shared with batch mode (see registerServe);
// this file holds what only live mode has.

// liveStreamConfig derives the per-shard engine configuration from the
// batch result, exactly like the deployed system hands the nightly spots
// and thresholds to the online tier.
func liveStreamConfig(res *core.Result) stream.Config {
	spots, ths := spotsAndThresholds(res)
	return stream.Config{
		Spots: spots, Thresholds: ths,
		Grid: res.Config.Grid, Amplify: res.Config.Amplify,
	}
}

// estimateJSON is the /estimate payload: best-effort contexts for the slot
// the feed is currently inside, merged from every shard's provisional
// accumulators (§8's early-estimate idea applied across shards). Live[i]
// reports whether spot i had enough of the slot observed to classify.
type estimateJSON struct {
	Version  uint64    `json:"version"`
	AsOf     time.Time `json:"as_of"`
	Slot     int       `json:"slot"`
	Contexts []string  `json:"contexts"`
	Live     []bool    `json:"live"`
}

// handleEstimate serves the provisional estimate, cached by the estimate
// version the shards bump as they export fresh accumulators. The version
// is read before the merge, so a cached body is never newer than its key.
func (s *server) handleEstimate(w http.ResponseWriter, _ *http.Request) {
	ver := s.svc.EstimateVersion()
	writeJSON(w, s.estCache.get(ver, 0, 1, func() []byte {
		est := s.svc.Estimate()
		out := estimateJSON{
			Version: est.Version, AsOf: est.AsOf, Slot: est.Slot,
			Contexts: make([]string, len(est.Labels)),
			Live:     est.OK,
		}
		for i, lb := range est.Labels {
			out.Contexts[i] = lb.String()
		}
		return encodeJSON(out)
	}))
}
