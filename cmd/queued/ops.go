package main

import (
	"encoding/json"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"

	"taxiqueue/internal/obs"
)

// healthJSON is the /healthz readiness payload.
type healthJSON struct {
	Status string `json:"status"` // "ok" or "unready"
	Reason string `json:"reason,omitempty"`
}

// registerOps mounts the operational endpoints shared by batch and live
// mode:
//
//	GET /metrics        Prometheus text exposition of reg
//	GET /healthz        readiness: batch result loaded, live shards alive,
//	                    WAL writable — 200 ok / 503 unready with a reason
//	GET /debug/pprof/*  runtime profiling (opt-in via -pprof)
//
// The live checks apply only when srv.svc is set; withPprof gates the
// profiler because it exposes goroutine dumps and CPU profiles — cheap to
// serve but not something an open dashboard port should offer by default.
func registerOps(mux *http.ServeMux, srv *server, reg *obs.Registry, withPprof bool) {
	// The live heap beside the heap the process holds, read from
	// runtime/metrics at scrape time without stopping the world: resident
	// far above live is pages a finished phase left behind.
	reg.GaugeFunc("queued_heap_live_bytes", "Heap bytes the last GC marked live.",
		readBytes("/gc/heap/live:bytes"))
	reg.GaugeFunc("queued_heap_resident_bytes", "Heap bytes in memory: objects, unused span space and free pages not yet released.",
		readBytes("/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes", "/memory/classes/heap/free:bytes"))
	reg.GaugeFunc("queued_heap_released_bytes", "Heap bytes returned to the OS.",
		readBytes("/memory/classes/heap/released:bytes"))
	mux.Handle("/metrics", reg)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		out := healthJSON{Status: "ok"}
		code := http.StatusOK
		ready := srv.view.Load() != nil
		switch {
		case !ready:
			out = healthJSON{Status: "unready", Reason: "batch analysis not loaded"}
			code = http.StatusServiceUnavailable
		case srv.svc != nil:
			if err := srv.svc.Health(); err != nil {
				out = healthJSON{Status: "unready", Reason: err.Error()}
				code = http.StatusServiceUnavailable
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		if err := json.NewEncoder(w).Encode(out); err != nil {
			log.Printf("healthz: %v", err)
		}
	})
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// readBytes is a gauge func summing runtime/metrics byte counts.
func readBytes(names ...string) func() float64 {
	return func() float64 {
		samples := make([]metrics.Sample, len(names))
		for i, n := range names {
			samples[i].Name = n
		}
		metrics.Read(samples)
		var sum float64
		for _, s := range samples {
			sum += float64(s.Value.Uint64())
		}
		return sum
	}
}
