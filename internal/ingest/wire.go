package ingest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"

	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
)

// The wire formats: /ingest accepts either newline-delimited JSON objects
// (RecordJSON, one per line; forgiving — a malformed line is counted and
// skipped) or a stream of the compact binary frames the store uses
// (mdt.AppendBinary; strict — a bad frame rejects the whole batch, since
// frame boundaries are lost).

// ContentTypeBinary selects the binary framing on /ingest.
const ContentTypeBinary = "application/octet-stream"

// ContentTypeJSONLines selects (and is the default) JSON-lines framing.
const ContentTypeJSONLines = "application/x-ndjson"

// maxBody bounds one /ingest request body (64 MiB ≈ 1.4M binary frames).
const maxBody = 64 << 20

// RecordJSON is the JSON-lines wire shape of one MDT record.
type RecordJSON struct {
	Time  string  `json:"time"` // RFC3339
	Taxi  string  `json:"taxi"`
	Lat   float64 `json:"lat"`
	Lon   float64 `json:"lon"`
	Speed float64 `json:"speed"`
	State string  `json:"state"` // Table 2 mnemonic, e.g. "POB"
}

// ToJSON converts a record to its wire shape.
func ToJSON(r mdt.Record) RecordJSON {
	return RecordJSON{
		Time: r.Time.UTC().Format(time.RFC3339), Taxi: r.TaxiID,
		Lat: r.Pos.Lat, Lon: r.Pos.Lon, Speed: r.Speed, State: r.State.String(),
	}
}

// Record converts the wire shape back. It rejects what the binary frame
// the WAL logs cannot carry (mdt.Record.CheckFrame), so a WAL replay sees
// exactly the record the live path processed.
func (j RecordJSON) Record() (mdt.Record, error) {
	ts, err := time.Parse(time.RFC3339, j.Time)
	if err != nil {
		return mdt.Record{}, fmt.Errorf("ingest: bad time: %w", err)
	}
	state, err := mdt.ParseState(j.State)
	if err != nil {
		return mdt.Record{}, err
	}
	r := mdt.Record{
		Time: ts.UTC(), TaxiID: j.Taxi,
		Pos: geo.Point{Lat: j.Lat, Lon: j.Lon}, Speed: j.Speed, State: state,
	}
	if err := r.CheckFrame(); err != nil {
		return mdt.Record{}, err
	}
	return r, nil
}

// EncodeJSONLines writes recs as newline-delimited RecordJSON (the JSON
// /ingest body format).
func EncodeJSONLines(w io.Writer, recs []mdt.Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range recs {
		if err := enc.Encode(ToJSON(r)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// EncodeBinary appends recs as binary frames (the binary /ingest body
// format) and returns the extended buffer.
func EncodeBinary(buf []byte, recs []mdt.Record) []byte {
	for _, r := range recs {
		buf = r.AppendBinary(buf)
	}
	return buf
}

// decodeBufs is the pooled scratch space of one /ingest request: the
// decoded record slice, the JSON line index and the raw binary body buffer.
// Accept copies records into per-shard slabs, so everything here is free
// for reuse the moment the handler responds.
type decodeBufs struct {
	recs   []mdt.Record
	lineOf []int
	raw    []byte
}

var decodePool = sync.Pool{New: func() any { return new(decodeBufs) }}

// readAll reads r to EOF into buf (reusing its capacity), like io.ReadAll
// without the fresh allocation per call.
func readAll(r io.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeBinary parses a whole binary body, appending to recs; any bad
// frame fails the batch.
func decodeBinary(body []byte, recs []mdt.Record) ([]mdt.Record, error) {
	for len(body) > 0 {
		r, n, err := mdt.DecodeBinary(body)
		if err != nil {
			return recs, fmt.Errorf("ingest: bad frame after %d records: %w", len(recs), err)
		}
		recs = append(recs, r)
		body = body[n:]
	}
	return recs, nil
}

// maxLine bounds one JSON line (a record is ~120 bytes; 1 MiB is garbage).
const maxLine = 1 << 20

// decodeJSONLines parses newline-delimited RecordJSON, skipping (and
// counting) malformed lines — including over-long ones, which used to fail
// the whole batch through the scanner's ErrTooLong and cost every good
// record around them. Records append to recs and line indexes to lineOf
// (both may carry reused capacity): lineOf[i] is the zero-based line index
// record i came from and lines the total consumed, so the handler can
// report a cursor in the client's own line space even when bad lines were
// skipped.
func decodeJSONLines(r io.Reader, recs []mdt.Record, lineOf []int) (_ []mdt.Record, _ []int, lines int, bad int64, err error) {
	br := bufio.NewReaderSize(r, 64*1024)
	var buf []byte
	for {
		chunk, e := br.ReadSlice('\n')
		buf = append(buf, chunk...)
		if e == bufio.ErrBufferFull {
			if len(buf) > maxLine {
				if e := discardLine(br); e != nil && e != io.EOF {
					return recs, lineOf, lines, bad, e
				}
				lines++
				bad++
				buf = buf[:0]
			}
			continue
		}
		if e != nil && e != io.EOF {
			return recs, lineOf, lines, bad, e
		}
		if len(buf) == 0 && e == io.EOF {
			return recs, lineOf, lines, bad, nil
		}
		if line := bytes.TrimRight(buf, "\r\n"); len(line) > 0 {
			var j RecordJSON
			rec, decErr := mdt.Record{}, json.Unmarshal(line, &j)
			if decErr == nil {
				rec, decErr = j.Record()
			}
			if decErr != nil {
				bad++
			} else {
				recs = append(recs, rec)
				lineOf = append(lineOf, lines)
			}
		}
		lines++
		buf = buf[:0]
		if e == io.EOF {
			return recs, lineOf, lines, bad, nil
		}
	}
}

// discardLine consumes the rest of an over-long line.
func discardLine(br *bufio.Reader) error {
	for {
		if _, err := br.ReadSlice('\n'); err != bufio.ErrBufferFull {
			return err
		}
	}
}

// ingestResponse is the /ingest reply body. Processed is the client's
// retry cursor: how many units of its batch — lines for JSON bodies,
// records for binary ones — the service consumed, counting skipped bad
// lines. On 429 the client must resend its batch from Processed; equating
// the cursor with Accepted (decoded records) instead re-sends or skips
// records whenever a bad line was dropped during decode.
type ingestResponse struct {
	Accepted  int    `json:"accepted"`
	Processed int    `json:"processed"`
	Bad       int64  `json:"bad,omitempty"`
	Error     string `json:"error,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("ingest: encode response: %v", err)
	}
}

// respond writes the JSON reply and feeds the per-code request counter.
func (s *Service) respond(w http.ResponseWriter, status int, v any) {
	s.met.countHTTP(status)
	writeJSON(w, status, v)
}

// HandleIngest is the POST /ingest handler: decode, route, apply
// backpressure. A deadline miss answers 429 with the accepted
// prefix count so the client can retry the rest.
func (s *Service) HandleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.met.countHTTP(http.StatusMethodNotAllowed)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxBody)
	db := decodePool.Get().(*decodeBufs)
	defer func() {
		db.recs = db.recs[:0]
		db.lineOf = db.lineOf[:0]
		db.raw = db.raw[:0]
		decodePool.Put(db)
	}()
	var (
		recs   []mdt.Record
		lineOf []int
		lines  int
		bad    int64
		err    error
	)
	t0 := time.Now()
	binary := r.Header.Get("Content-Type") == ContentTypeBinary
	if binary {
		if db.raw, err = readAll(body, db.raw); err == nil {
			recs, err = decodeBinary(db.raw, db.recs[:0])
			db.recs = recs
		}
		if err != nil {
			if tooLarge(err) {
				// The body hit maxBody: a client bug or misconfiguration,
				// not a bad record — don't poison the data-quality counter.
				s.respond(w, http.StatusRequestEntityTooLarge, ingestResponse{Error: err.Error()})
				return
			}
			s.met.badRecords.Add(1)
			s.respond(w, http.StatusBadRequest, ingestResponse{Error: err.Error()})
			return
		}
	} else {
		recs, lineOf, lines, bad, err = decodeJSONLines(body, db.recs[:0], db.lineOf[:0])
		db.recs, db.lineOf = recs, lineOf
		if err != nil {
			if tooLarge(err) {
				s.respond(w, http.StatusRequestEntityTooLarge, ingestResponse{Error: err.Error()})
				return
			}
			s.respond(w, http.StatusBadRequest, ingestResponse{Bad: bad, Error: err.Error()})
			return
		}
		s.met.badRecords.Add(bad)
	}
	s.met.decode.Since(t0)
	n, err := s.Accept(recs)
	// The retry cursor: binary frames map 1:1 to records, JSON records map
	// to the line they came from (past any skipped bad lines).
	processed := n
	if !binary {
		if n == len(recs) {
			processed = lines
		} else {
			processed = lineOf[n]
		}
	}
	switch {
	case errors.Is(err, ErrClosed):
		s.respond(w, http.StatusServiceUnavailable, ingestResponse{Error: "ingest closed"})
	case errors.Is(err, ErrBackpressure):
		s.respond(w, http.StatusTooManyRequests, ingestResponse{Accepted: n, Processed: processed, Bad: bad, Error: "backpressure: retry remaining records"})
	default:
		s.respond(w, http.StatusOK, ingestResponse{Accepted: n, Processed: processed, Bad: bad})
	}
}

// tooLarge reports whether err is http.MaxBytesReader tripping.
func tooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// HandleStats is the GET /ingest/stats handler.
func (s *Service) HandleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

// HandleFlush is the POST /ingest/flush handler: the end-of-feed switch
// that finalizes every slot (see Service.Flush). After Close/Abort it
// answers 503 immediately — it used to post to exited workers and hang the
// request forever.
func (s *Service) HandleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if err := s.Flush(); err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, ErrClosed) {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, ingestResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"flushed": true, "final_below": s.minClosed()})
}
