package main

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"sync/atomic"

	"taxiqueue/internal/obs"
)

// renderCache is the pre-encoded response cache behind one hot endpoint.
// Responses are rendered once per (epoch, slot) and then served as the same
// cached []byte until the epoch key changes. The key is compared by value —
// handlers pass the published pointers themselves (the *batchView and
// *ingest.Snapshot pair, or the estimate version) — so invalidation is
// pointer identity, never a timer: the instant a new view or snapshot is
// published, every request renders against it; until then every request
// is a cache hit that serves immutable bytes with zero encoding work.
//
// The cache itself is lock-free. Concurrent requests that race on a fresh
// epoch may each render once (the last Store wins), which is benign:
// correctness never depends on cache state because every render closure
// reads only the epoch-keyed immutable data the handler already loaded.
type renderCache struct {
	p            atomic.Pointer[renderEpoch]
	hits, misses *obs.Counter
}

// renderEpoch is one epoch's body set; bodies[i] is the encoded response
// for slot bucket i, filled lazily on first request.
type renderEpoch struct {
	key    any
	bodies []atomic.Pointer[[]byte]
}

// newRenderCache registers the hit/miss series for one endpoint in reg.
func newRenderCache(reg *obs.Registry, endpoint string) *renderCache {
	l := obs.Label{Name: "endpoint", Value: endpoint}
	return &renderCache{
		hits:   reg.Counter("queued_cache_hits_total", "Responses served as pre-encoded bytes from the per-epoch cache.", l),
		misses: reg.Counter("queued_cache_misses_total", "Responses rendered because the epoch or slot was not cached yet.", l),
	}
}

// get returns the cached body for (key, idx), rendering and installing it
// on first need. key must be comparable; idx must be < n, the number of
// slot buckets this endpoint distinguishes within one epoch.
func (c *renderCache) get(key any, idx, n int, render func() []byte) []byte {
	e := c.p.Load()
	if e == nil || e.key != key {
		e = &renderEpoch{key: key, bodies: make([]atomic.Pointer[[]byte], n)}
		c.p.Store(e)
	}
	if b := e.bodies[idx].Load(); b != nil {
		c.hits.Inc()
		return *b
	}
	c.misses.Inc()
	body := render()
	e.bodies[idx].Store(&body)
	return body
}

// encodeJSON renders v exactly like json.NewEncoder(w).Encode(v) does on
// the uncached path — including the trailing newline — so cached and
// baseline responses are byte-identical.
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		log.Printf("encode: %v", err)
		return []byte("null\n")
	}
	return buf.Bytes()
}

// writeJSON serves one pre-encoded body.
func writeJSON(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(body); err != nil {
		log.Printf("write: %v", err)
	}
}
