package main

import (
	"encoding/json"
	"log"
	"net/http"
	"net/http/pprof"

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
