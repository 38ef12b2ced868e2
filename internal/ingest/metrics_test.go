package ingest

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestMetricsMatchStats: an /ingest POST must advance the registry-backed
// counters, and the /ingest/stats JSON must agree with the Prometheus
// render — both read the same collectors, so any divergence is a bug.
func TestMetricsMatchStats(t *testing.T) {
	stall := make(chan struct{})
	close(stall)
	svc, err := NewService(tinyConfig(stall))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	var body bytes.Buffer
	if err := EncodeJSONLines(&body, burst(100)); err != nil {
		t.Fatal(err)
	}
	body.WriteString("{not json}\n")
	req := httptest.NewRequest("POST", "/ingest", &body)
	w := httptest.NewRecorder()
	svc.HandleIngest(w, req)
	if w.Code != 200 {
		t.Fatalf("ingest status %d: %s", w.Code, w.Body.String())
	}
	// Settle: Flush only returns once the queue has drained and the
	// cleaner released its held records.
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}

	st := svc.Stats()
	if st.Accepted == 0 {
		t.Fatal("nothing accepted")
	}
	if st.BadRecords != 1 {
		t.Fatalf("bad_records %d, want the 1 malformed line", st.BadRecords)
	}

	// The JSON totals must equal the registry collectors exactly.
	m := svc.met
	var regAccepted, regRejected int64
	for i := range m.shards {
		regAccepted += m.shards[i].accepted.Value()
		regRejected += m.shards[i].rejected.Value()
	}
	if st.Accepted != regAccepted || st.Rejected != regRejected {
		t.Fatalf("stats JSON (acc=%d rej=%d) != registry (acc=%d rej=%d)",
			st.Accepted, st.Rejected, regAccepted, regRejected)
	}
	if got := m.badRecords.Value(); st.BadRecords != got {
		t.Fatalf("stats bad_records %d != registry %d", st.BadRecords, got)
	}

	// Every live-path stage histogram saw at least one observation.
	for name, c := range map[string]int64{
		"ingest_http_decode_seconds": m.decode.Count(),
		"ingest_queue_wait_seconds":  m.queueWait.Count(),
		"ingest_process_seconds":     m.process.Count(),
	} {
		if c == 0 {
			t.Errorf("%s never observed", name)
		}
	}
	if m.httpReqs[200].Value() != 1 {
		t.Fatalf("http 200 counter %d, want 1", m.httpReqs[200].Value())
	}

	// The Prometheus scrape renders those same values.
	var buf bytes.Buffer
	if err := svc.cfg.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		fmt.Sprintf(`ingest_accepted_total{shard="0"} %d`, st.Accepted),
		fmt.Sprintf(`ingest_http_requests_total{code="200"} %d`, 1),
		"ingest_bad_records_total 1",
		"ingest_queue_wait_seconds_count",
		`ingest_queue_depth{shard="0"} 0`,
		"ingest_aggregator_cells",
		`ingest_watermark_slot{shard="0"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestMetricsHandlerServesScrape: the registry doubles as the /metrics
// http.Handler with the Prometheus text content type.
func TestMetricsHandlerServesScrape(t *testing.T) {
	stall := make(chan struct{})
	close(stall)
	svc, err := NewService(tinyConfig(stall))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	w := httptest.NewRecorder()
	svc.cfg.Metrics.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if w.Code != 200 {
		t.Fatalf("scrape status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(w.Body.String(), "# TYPE ingest_accepted_total counter") {
		t.Fatal("scrape missing ingest series")
	}
}
