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

// FuzzDecodeBinary: DecodeBinary never panics, and a record it decodes
// re-encodes to the bytes it consumed and decodes back to itself.
func FuzzDecodeBinary(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, n, err := DecodeBinary(data)
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
