package ingest

import (
	"bytes"
	"math"
	"testing"

	"taxiqueue/internal/mdt"
)

// FuzzDecodeJSONLines: decoding an in-memory /ingest JSON body never
// panics or errors; the line index lines up with the records (one entry
// each, strictly increasing, below the lines consumed); decoded records
// plus bad lines never exceed the lines; and every decoded record survives
// the binary WAL frame — the frame decodes whole to the same time, taxi,
// position, speed and state, so a replay sees what the live path did.
func FuzzDecodeJSONLines(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		recs, lineOf, lines, bad, err := decodeJSONLines(bytes.NewReader(body), nil, nil)
		if err != nil {
			t.Fatalf("in-memory body failed to decode: %v", err)
		}
		if len(lineOf) != len(recs) {
			t.Fatalf("%d line indexes for %d records", len(lineOf), len(recs))
		}
		for i, l := range lineOf {
			if l >= lines || (i > 0 && l <= lineOf[i-1]) {
				t.Fatalf("lineOf %v not strictly increasing below %d lines", lineOf, lines)
			}
		}
		if int64(len(recs))+bad > int64(lines) {
			t.Fatalf("%d records + %d bad lines > %d lines", len(recs), bad, lines)
		}
		for _, r := range recs {
			frame := r.AppendBinary(nil)
			back, n, err := mdt.DecodeBinary(frame)
			if err != nil || n != len(frame) {
				t.Fatalf("frame of %+v decodes as %d of %d bytes, %v", r, n, len(frame), err)
			}
			// Equal, not a UnixNano comparison: UnixNano wraps outside its
			// range on both sides of the frame and would hide a wrong time.
			if !back.Time.Equal(r.Time) || back.TaxiID != r.TaxiID || back.State != r.State ||
				math.Float64bits(back.Pos.Lat) != math.Float64bits(r.Pos.Lat) ||
				math.Float64bits(back.Pos.Lon) != math.Float64bits(r.Pos.Lon) ||
				math.Float64bits(back.Speed) != math.Float64bits(r.Speed) {
				t.Fatalf("record %+v comes back from its WAL frame as %+v", r, back)
			}
		}
	})
}
