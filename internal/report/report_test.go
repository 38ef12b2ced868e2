package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("My Title", "Name", "Value")
	tb.AddRow("alpha", "1")
	tb.AddRow("beta-long-name", "22")
	out := tb.String()
	if !strings.HasPrefix(out, "My Title\n") {
		t.Errorf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4+1 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Columns align: "Value" starts at the same offset in header and rows.
	headerIdx := strings.Index(lines[1], "Value")
	rowIdx := strings.Index(lines[3], "1")
	if headerIdx != strings.Index(lines[4], "22") || rowIdx != headerIdx {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "A")
	tb.AddRow("x")
	if strings.HasPrefix(tb.String(), "\n") {
		t.Error("empty title produced leading newline")
	}
}

func TestTableExtraCells(t *testing.T) {
	tb := NewTable("t", "A")
	tb.AddRow("x", "extra")
	if !strings.Contains(tb.String(), "extra") {
		t.Error("extra cell dropped")
	}
}

func TestFormatHelpers(t *testing.T) {
	if Pct(0.483) != "48.3%" {
		t.Errorf("Pct = %q", Pct(0.483))
	}
	if F(7.649) != "7.6" {
		t.Errorf("F = %q", F(7.649))
	}
	if F2(6.127) != "6.13" {
		t.Errorf("F2 = %q", F2(6.127))
	}
	if Meters(7.61) != "7.6 m" {
		t.Errorf("Meters = %q", Meters(7.61))
	}
}

func TestGeoJSON(t *testing.T) {
	fc := NewFeatureCollection()
	fc.AddPoint(1.3044, 103.8335, map[string]any{"name": "Lucky Plaza", "context": "C2"})
	var buf strings.Builder
	if err := fc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// GeoJSON uses [lon, lat] order.
	if !strings.Contains(out, "103.8335") || !strings.Contains(out, "1.3044") {
		t.Fatalf("coordinates missing:\n%s", out)
	}
	lonIdx := strings.Index(out, "103.8335")
	latIdx := strings.Index(out, "1.3044")
	if lonIdx > latIdx {
		t.Error("coordinates not in [lon, lat] order")
	}
	if !strings.Contains(out, `"FeatureCollection"`) || !strings.Contains(out, `"Lucky Plaza"`) {
		t.Errorf("document incomplete:\n%s", out)
	}
	// Empty collection still encodes a features array, not null.
	var empty strings.Builder
	if err := NewFeatureCollection().Encode(&empty); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(empty.String(), "null") {
		t.Error("empty collection encodes null features")
	}
}
