package main

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"taxiqueue/internal/obs"
)

// heapSlack is how far the heap queued holds in memory may stand above
// its live heap once a one-off phase has returned its pages: span space
// the live objects leave unused, and what was allocated since. At the
// child's scale the gap read 1.7–3.2 MB with the pages returned (up to
// 4.6 MB for the lap under -race) and 14–20 MB without.
const heapSlack = 8 << 20

// heapGauges scrapes url's /metrics for the queued_heap_* gauges, failing
// the test if one is missing.
func heapGauges(t *testing.T, url string) (live, resident, released float64) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, v, ok := strings.Cut(sc.Text(), " ")
		if !strings.HasPrefix(name, "queued_heap_") || !ok {
			continue
		}
		if got[name], err = strconv.ParseFloat(v, 64); err != nil {
			t.Fatalf("%s: %v", sc.Text(), err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"queued_heap_live_bytes", "queued_heap_resident_bytes", "queued_heap_released_bytes"} {
		if _, ok := got[name]; !ok {
			t.Fatalf("/metrics has no %s", name)
		}
	}
	return got["queued_heap_live_bytes"], got["queued_heap_resident_bytes"], got["queued_heap_released_bytes"]
}

// checkHeapReturned checks that the heap url's process holds in memory is
// within heapSlack of its live heap. A miss is an error, not fatal, so a
// test can go on to the steps later cases depend on.
func checkHeapReturned(t *testing.T, url string) {
	t.Helper()
	live, resident, released := heapGauges(t, url)
	const mb = 1 << 20
	t.Logf("heap: live %.2f MB, resident %.2f MB, released %.2f MB", live/mb, resident/mb, released/mb)
	if resident-live > heapSlack {
		t.Errorf("resident heap %.2f MB is %.2f MB over the live heap %.2f MB, slack %.2f MB: a phase's pages were kept",
			resident/mb, (resident-live)/mb, live/mb, float64(heapSlack)/mb)
	}
}

// TestStartupReturnsBootstrapHeap starts queued in batch mode with
// -history, in live mode with -wal, and in live mode again over that
// WAL after a morning's feed and a SIGTERM, so that set-up includes a
// replay. At the first /healthz 200 the heap queued holds is within
// heapSlack of its live heap: set-up returned the bootstrap day's pages.
func TestStartupReturnsBootstrapHeap(t *testing.T) {
	base := []string{"-addr", "127.0.0.1:0", "-seed", strconv.Itoa(childSeed),
		"-scale", strconv.FormatFloat(childScale, 'g', -1, 64), "-minpts", strconv.Itoa(childMinPts)}
	liveArgs := append(append([]string(nil), base...), "-live", "-shards", "2", "-wal", t.TempDir())
	start := func(t *testing.T, args []string) *childQueued {
		q := startQueued(t, args)
		resp, err := http.Get(q.url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/healthz answered %d once queued listened", resp.StatusCode)
		}
		checkHeapReturned(t, q.url)
		return q
	}
	t.Run("batch", func(t *testing.T) {
		start(t, append(append([]string(nil), base...), "-history", t.TempDir()))
	})
	t.Run("live", func(t *testing.T) {
		q := start(t, liveArgs)
		q.feedMorning(t)
		q.stopWhileReading(t)
	})
	t.Run("live-replay", func(t *testing.T) {
		start(t, liveArgs)
	})
}

// TestRefreshLapReturnsHeap runs one -refresh lap in this process: once
// it returns, the heap held is within heapSlack of the live heap.
func TestRefreshLapReturnsHeap(t *testing.T) {
	srv := newServer(obs.NewRegistry())
	if err := srv.recompute(childSeed, childScale, childMinPts); err != nil {
		t.Fatal(err)
	}
	hist, err := newHistoryStore(t.TempDir(), srv.result(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer hist.Close()
	fc, err := newForecastLearner(srv.result(), obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	mux := http.NewServeMux()
	registerOps(mux, srv, obs.NewRegistry(), false)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	refreshLap(srv, hist, fc, childSeed, 1, childScale, childMinPts)
	checkHeapReturned(t, ts.URL)
}
