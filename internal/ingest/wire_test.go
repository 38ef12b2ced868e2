package ingest

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"taxiqueue/internal/mdt"
)

func postJSON(t *testing.T, svc *Service, body *bytes.Buffer) (int, ingestResponse) {
	t.Helper()
	req := httptest.NewRequest("POST", "/ingest", body)
	req.Header.Set("Content-Type", ContentTypeJSONLines)
	w := httptest.NewRecorder()
	svc.HandleIngest(w, req)
	var resp ingestResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("status %d, body %q: %v", w.Code, w.Body.String(), err)
	}
	return w.Code, resp
}

// TestLongLineSkippedNotFatal: a single over-long JSON line used to fail
// the whole batch through the scanner's ErrTooLong — every good record
// around it was bounced with a 400. It must now be counted and skipped
// like any other bad line.
func TestLongLineSkippedNotFatal(t *testing.T) {
	stall := make(chan struct{})
	close(stall)
	svc, err := NewService(tinyConfig(stall))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	var body bytes.Buffer
	if err := EncodeJSONLines(&body, burst(5)); err != nil {
		t.Fatal(err)
	}
	body.WriteString(`{"taxi":"` + strings.Repeat("x", 3<<20) + "\"}\n") // ~3 MiB line
	if err := EncodeJSONLines(&body, burst(5)); err != nil {
		t.Fatal(err)
	}
	code, resp := postJSON(t, svc, &body)
	if code != 200 {
		t.Fatalf("status %d, want 200", code)
	}
	if resp.Accepted != 10 || resp.Bad != 1 {
		t.Fatalf("accepted %d bad %d, want 10 accepted, 1 bad", resp.Accepted, resp.Bad)
	}
	if resp.Processed != 11 {
		t.Fatalf("processed %d, want all 11 lines consumed", resp.Processed)
	}
}

// TestOversizedBodyAnswers413: a body past maxBody is a client bug, not
// bad data — it must answer 413 (counted per-code) and leave the
// bad-records data-quality counter untouched. Both wire formats.
func TestOversizedBodyAnswers413(t *testing.T) {
	huge := make([]byte, maxBody+16)
	for _, ct := range []string{ContentTypeBinary, ContentTypeJSONLines} {
		t.Run(ct, func(t *testing.T) {
			stall := make(chan struct{})
			close(stall)
			svc, err := NewService(tinyConfig(stall))
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			req := httptest.NewRequest("POST", "/ingest", bytes.NewReader(huge))
			req.Header.Set("Content-Type", ct)
			w := httptest.NewRecorder()
			svc.HandleIngest(w, req)
			if w.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d, want 413", w.Code)
			}
			if n := svc.Stats().BadRecords; n != 0 {
				t.Fatalf("oversized body counted as %d bad records", n)
			}
			if n := svc.met.httpReqs[http.StatusRequestEntityTooLarge].Value(); n != 1 {
				t.Fatalf("requests_total{code=413} = %d, want 1", n)
			}
		})
	}
}

// TestProcessedCursorAlignsPoisonedBatch is the 429-accounting regression:
// the accepted-prefix count indexes *decoded records*, so a client that
// advanced its line cursor by it after a poisoned batch (a bad line amid
// good ones) re-sent an already-accepted record forever. Processed counts
// consumed lines — past the skipped bad line — so the cursor lands exactly
// on the first unaccepted record.
func TestProcessedCursorAlignsPoisonedBatch(t *testing.T) {
	stall := make(chan struct{})
	cfg := tinyConfig(stall) // queue depth 8, worker wedged
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := burst(100)
	var body bytes.Buffer
	if err := EncodeJSONLines(&body, recs[:3]); err != nil {
		t.Fatal(err)
	}
	body.WriteString("{poisoned line}\n")
	if err := EncodeJSONLines(&body, recs[3:]); err != nil {
		t.Fatal(err)
	}
	code, resp := postJSON(t, svc, &body)
	if code != 429 {
		t.Fatalf("status %d, want 429 from the wedged shard", code)
	}
	if resp.Accepted != cfg.queueDepth || resp.Bad != 1 {
		t.Fatalf("accepted %d bad %d, want %d/1", resp.Accepted, resp.Bad, cfg.queueDepth)
	}
	// Records 0-7 occupy lines 0-2 and 4-8 (line 3 is poison): the first
	// unaccepted record, #8, sits at line 9 — one past the naive cursor.
	if resp.Processed != resp.Accepted+1 {
		t.Fatalf("processed %d, want %d (accepted prefix plus the skipped line)", resp.Processed, resp.Accepted+1)
	}
	// A client resuming at line Processed re-sends exactly records 8+.
	var rest bytes.Buffer
	if err := EncodeJSONLines(&rest, recs[resp.Processed-1:]); err != nil {
		t.Fatal(err)
	}
	close(stall) // un-wedge
	code, resp = postJSON(t, svc, &rest)
	if code != 200 || resp.Accepted != 92 {
		t.Fatalf("retry: status %d accepted %d, want 200/92", code, resp.Accepted)
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	// No record lost, none double-fed: the single-taxi burst is strictly
	// ordered, so any re-sent overlap would be rejected and show here.
	st := svc.Stats()
	if st.Accepted != 100 || st.Rejected != 0 {
		t.Fatalf("accepted %d rejected %d after aligned retry, want 100/0", st.Accepted, st.Rejected)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJSONRejectsRecordsTheWALCannotFrame: the binary WAL frame holds a
// one-byte taxi-ID length and an int64 UnixNano time. A JSON line past
// either limit used to be accepted: a 256-byte ID panicked the shard
// worker inside AppendBinary, and a year-9999 time was logged as a
// different time, so a restart replayed a record the live path never
// processed. Both now count as bad lines.
func TestJSONRejectsRecordsTheWALCannotFrame(t *testing.T) {
	stall := make(chan struct{})
	close(stall)
	cfg := tinyConfig(stall)
	cfg.WALDir = t.TempDir()
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	good := burst(1)[0]
	longID, farTime := good, good
	longID.TaxiID = strings.Repeat("x", mdt.MaxTaxiIDLen+1)
	farTime.Time = time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC)
	var body bytes.Buffer
	if err := EncodeJSONLines(&body, []mdt.Record{good, longID, farTime}); err != nil {
		t.Fatal(err)
	}
	code, resp := postJSON(t, svc, &body)
	if code != 200 || resp.Accepted != 1 || resp.Bad != 2 {
		t.Fatalf("status %d accepted %d bad %d, want 200 with 1 accepted, 2 bad", code, resp.Accepted, resp.Bad)
	}
	if n := svc.Stats().BadRecords; n != 2 {
		t.Fatalf("bad records counter %d, want 2", n)
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	restarted, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if n := restarted.Stats().Replayed; n != 1 {
		t.Fatalf("restart replayed %d records, want the 1 good one", n)
	}
}
