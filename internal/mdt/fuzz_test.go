package mdt

import (
	"bytes"
	"math"
	"testing"
)

// sameBits compares records field by field, floats by their bits so NaN
// payloads count as equal to themselves.
func sameBits(a, b Record) bool {
	return a.Time.Equal(b.Time) && a.TaxiID == b.TaxiID && a.State == b.State &&
		math.Float64bits(a.Pos.Lat) == math.Float64bits(b.Pos.Lat) &&
		math.Float64bits(a.Pos.Lon) == math.Float64bits(b.Pos.Lon) &&
		math.Float64bits(a.Speed) == math.Float64bits(b.Speed)
}

// FuzzDecodeBinary: DecodeBinary never panics; a record it decodes
// re-encodes to the bytes it consumed and decodes back to itself; and
// DecodeBinaryID, whether or not it is handed the record's taxi ID, returns
// what DecodeBinary does.
func FuzzDecodeBinary(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, n, err := DecodeBinary(data)
		for _, id := range []string{"SH0001A", r.TaxiID} {
			r2, n2, err2 := DecodeBinaryID(data, id)
			if n2 != n || (err2 == nil) != (err == nil) || !sameBits(r2, r) {
				t.Fatalf("DecodeBinaryID(%q) = %+v, %d, %v; DecodeBinary = %+v, %d, %v", id, r2, n2, err2, r, n, err)
			}
		}
		if err != nil {
			return
		}
		enc := r.AppendBinary(nil)
		if !bytes.Equal(enc, data[:n]) {
			t.Fatalf("re-encoding %+v gives %x, decoded from %x", r, enc, data[:n])
		}
		back, m, err := DecodeBinary(enc)
		if err != nil || m != len(enc) || !sameBits(back, r) {
			t.Fatalf("re-encoded record decodes as %+v, %d, %v; want %+v", back, m, err, r)
		}
	})
}

// FuzzParseText: ParseText never panics, and a line it accepts formats to
// a line that parses back to a record which formats to that same line. The
// text format keeps whole seconds and five decimals of a coordinate, so the
// first parse may lose precision; after one format the line is a fixed
// point.
func FuzzParseText(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string) {
		r, err := ParseText(line)
		if err != nil {
			return
		}
		text := r.FormatText()
		back, err := ParseText(text)
		if err != nil {
			t.Fatalf("ParseText(%q) = %+v, which formats to %q that does not parse: %v", line, r, text, err)
		}
		if again := back.FormatText(); again != text {
			t.Fatalf("ParseText(%q) formats to %q, which parses and formats to %q", line, text, again)
		}
	})
}
