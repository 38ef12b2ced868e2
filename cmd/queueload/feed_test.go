package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"taxiqueue/internal/citymap"
	"taxiqueue/internal/clean"
	"taxiqueue/internal/ingest"
	"taxiqueue/internal/sim"
)

// TestFeedResendsBackpressuredBatch: /ingest answers the first POST with
// 429 and nothing processed, as a full shard queue does. The feed must
// re-send that batch, so the first lap reaches the server whole and in
// order, and no feed error is counted.
func TestFeedResendsBackpressuredBatch(t *testing.T) {
	cfg := defaultConfig()
	cfg.FeedScale = 0.01
	cfg.FeedBatch = 200
	out := sim.Run(sim.Config{Seed: cfg.FeedSeed, City: citymap.Generate(cfg.FeedSeed, cfg.FeedScale)})
	day, _ := clean.Compact(out.Records, clean.Config{ValidFrame: citymap.Island})
	var buf bytes.Buffer
	if err := ingest.EncodeJSONLines(&buf, day); err != nil {
		t.Fatal(err)
	}
	want := strings.SplitAfter(buf.String(), "\n")
	want = want[:len(want)-1] // the empty string after the last newline

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		mu    sync.Mutex
		posts int
		got   []string // lines the server took, in arrival order
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		lines := strings.SplitAfter(string(body), "\n")
		lines = lines[:len(lines)-1]
		mu.Lock()
		defer mu.Unlock()
		posts++
		switch {
		case posts == 1:
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"accepted":0,"processed":0}`)
			return
		case len(got) >= len(want):
			cancel() // the second lap has begun: stop the feed
		}
		got = append(got, lines...)
		fmt.Fprintf(w, `{"accepted":%d,"processed":%d}`, len(lines), len(lines))
	}))
	defer ts.Close()
	cfg.URL = ts.URL

	fed, errs := feedLoop(ctx, cfg, ts.Client())
	if errs != 0 {
		t.Errorf("feed errors = %d, want 0", errs)
	}
	if fed != len(day) {
		t.Errorf("fed %d records, want the lap's %d", fed, len(day))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) < len(want) {
		t.Fatalf("server took %d lines, want at least the lap's %d", len(got), len(want))
	}
	for i, l := range want {
		if got[i] != l {
			t.Fatalf("line %d of the lap = %q, want %q", i, got[i], l)
		}
	}
}
