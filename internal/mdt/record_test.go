package mdt

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"taxiqueue/internal/geo"
)

func sampleRecord() Record {
	return Record{
		Time:   time.Date(2008, 8, 1, 19, 4, 51, 0, time.UTC),
		TaxiID: "SH0001A",
		Pos:    geo.Point{Lat: 1.33795, Lon: 103.7999},
		Speed:  54,
		State:  POB,
	}
}

func TestFormatTextMatchesPaperSample(t *testing.T) {
	// Table 2 sample: 01/08/2008 19:04:51 SH0001A 103.7999 1.33795 54 POB
	got := sampleRecord().FormatText()
	want := "01/08/2008 19:04:51,SH0001A,103.79990,1.33795,54,POB"
	if got != want {
		t.Fatalf("FormatText = %q, want %q", got, want)
	}
}

func TestParseTextRoundTrip(t *testing.T) {
	r := sampleRecord()
	got, err := ParseText(r.FormatText())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r) {
		t.Fatalf("round trip %+v != %+v", got, r)
	}
}

func TestParseTextErrors(t *testing.T) {
	bad := []string{
		"",
		"01/08/2008 19:04:51,SH0001A,103.8,1.3,54",            // 5 fields
		"01/08/2008 19:04:51,SH0001A,103.8,1.3,54,POB,extra",  // 7 fields
		"2008-08-01 19:04:51,SH0001A,103.8,1.3,54,POB",        // wrong time layout
		"01/08/2008 19:04:51,SH0001A,abc,1.3,54,POB",          // bad lon
		"01/08/2008 19:04:51,SH0001A,103.8,abc,54,POB",        // bad lat
		"01/08/2008 19:04:51,SH0001A,103.8,1.3,fast,POB",      // bad speed
		"01/08/2008 19:04:51,SH0001A,103.8,1.3,54,TELEPORTED", // bad state
	}
	for _, line := range bad {
		if _, err := ParseText(line); err == nil {
			t.Errorf("ParseText(%q) accepted malformed input", line)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	r := sampleRecord()
	buf := r.AppendBinary(nil)
	got, n, err := DecodeBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d bytes, want %d", n, len(buf))
	}
	if !got.Equal(r) {
		t.Fatalf("binary round trip %+v != %+v", got, r)
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(lat, lon, speed float64, stateByte uint8, idLen uint8) bool {
		r := Record{
			Time:   time.Unix(rng.Int63n(2_000_000_000), 0).UTC(),
			TaxiID: strings.Repeat("X", int(idLen%32)),
			Pos:    geo.Point{Lat: lat, Lon: lon},
			Speed:  speed,
			State:  State(stateByte % uint8(NumStates)),
		}
		buf := r.AppendBinary(nil)
		got, n, err := DecodeBinary(buf)
		return err == nil && n == len(buf) && got.Equal(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeBinaryErrors(t *testing.T) {
	if _, _, err := DecodeBinary(nil); err == nil {
		t.Error("DecodeBinary(nil) succeeded")
	}
	if _, _, err := DecodeBinary([]byte{0, 0, 0}); err == nil {
		t.Error("DecodeBinary with bad magic succeeded")
	}
	buf := sampleRecord().AppendBinary(nil)
	if _, _, err := DecodeBinary(buf[:len(buf)-2]); err == nil {
		t.Error("DecodeBinary of truncated buffer succeeded")
	}
	// Corrupt the state byte.
	bad := append([]byte(nil), buf...)
	bad[len(bad)-1] = 77
	if _, _, err := DecodeBinary(bad); err == nil {
		t.Error("DecodeBinary accepted invalid state byte")
	}
}

// TestCheckFrame: CheckFrame accepts exactly the records whose binary
// frame decodes back to them — IDs up to MaxTaxiIDLen bytes, times within
// the int64 Unix-nanosecond span, the 11 states — and each accepted edge
// case round-trips.
func TestCheckFrame(t *testing.T) {
	at := func(r Record, f func(*Record)) Record { f(&r); return r }
	r := sampleRecord()
	for _, c := range []struct {
		name string
		r    Record
		ok   bool
	}{
		{"sample", r, true},
		{"255-byte ID", at(r, func(r *Record) { r.TaxiID = strings.Repeat("x", MaxTaxiIDLen) }), true},
		{"256-byte ID", at(r, func(r *Record) { r.TaxiID = strings.Repeat("x", MaxTaxiIDLen+1) }), false},
		{"earliest time", at(r, func(r *Record) { r.Time = time.Unix(0, math.MinInt64).UTC() }), true},
		{"latest time", at(r, func(r *Record) { r.Time = time.Unix(0, math.MaxInt64).UTC() }), true},
		{"1 ns before the earliest", at(r, func(r *Record) { r.Time = time.Unix(0, math.MinInt64).Add(-1) }), false},
		{"1 ns after the latest", at(r, func(r *Record) { r.Time = time.Unix(0, math.MaxInt64).Add(1) }), false},
		{"year 3000", at(r, func(r *Record) { r.Time = time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC) }), false},
		{"last state", at(r, func(r *Record) { r.State = PowerOff }), true},
		{"state 11", at(r, func(r *Record) { r.State = State(NumStates) }), false},
		{"state 99", at(r, func(r *Record) { r.State = 99 }), false},
	} {
		err := c.r.CheckFrame()
		if (err == nil) != c.ok {
			t.Errorf("%s: CheckFrame = %v, want ok %v", c.name, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		back, _, err := DecodeBinary(c.r.AppendBinary(nil))
		if err != nil || !sameBits(back, c.r) {
			t.Errorf("%s: frame decodes as %+v, %v", c.name, back, err)
		}
	}
}

func TestBinaryConcatenation(t *testing.T) {
	recs := []Record{sampleRecord(), sampleRecord(), sampleRecord()}
	recs[1].TaxiID = "SH0002B"
	recs[2].State = Free
	var buf []byte
	for _, r := range recs {
		buf = r.AppendBinary(buf)
	}
	var got []Record
	for len(buf) > 0 {
		r, n, err := DecodeBinary(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
		buf = buf[n:]
	}
	if len(got) != 3 || !got[1].Equal(recs[1]) || !got[2].Equal(recs[2]) {
		t.Fatalf("decoded stream mismatch: %+v", got)
	}
}

func TestWriteReadText(t *testing.T) {
	recs := []Record{sampleRecord()}
	r2 := sampleRecord()
	r2.Time = r2.Time.Add(10 * time.Second)
	r2.State = Payment
	recs = append(recs, r2)
	var buf bytes.Buffer
	if err := WriteText(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got[0].Equal(recs[0]) || !got[1].Equal(recs[1]) {
		t.Fatalf("text stream mismatch: %+v", got)
	}
}

func TestReadTextSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n" + sampleRecord().FormatText() + "\n"
	got, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d records, want 1", len(got))
	}
}

func TestReadTextReportsLineNumber(t *testing.T) {
	in := sampleRecord().FormatText() + "\ngarbage line\n"
	_, err := ReadText(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error %v does not name line 2", err)
	}
}

func TestSplitByTaxi(t *testing.T) {
	base := sampleRecord()
	var recs []Record
	for i := 0; i < 6; i++ {
		r := base
		r.Time = base.Time.Add(time.Duration(i) * time.Minute)
		if i%2 == 1 {
			r.TaxiID = "SH0002B"
		}
		recs = append(recs, r)
	}
	byTaxi := SplitByTaxi(recs)
	if len(byTaxi) != 2 {
		t.Fatalf("got %d taxis, want 2", len(byTaxi))
	}
	for id, tr := range byTaxi {
		if len(tr) != 3 {
			t.Errorf("taxi %s has %d records, want 3", id, len(tr))
		}
		if !tr.Sorted() {
			t.Errorf("taxi %s trajectory not sorted", id)
		}
	}
}

// TestSplitByTaxiPreservesOrderAndIsolation checks the counting-sort
// grouping: interleaved input keeps each taxi's relative record order, and
// the capacity-clamped sub-slices cannot bleed into a neighbouring taxi's
// region of the shared backing array when appended to.
func TestSplitByTaxiPreservesOrderAndIsolation(t *testing.T) {
	base := sampleRecord()
	ids := []string{"SH0003C", "SH0001A", "SH0002B", "SH0001A", "SH0003C", "SH0002B", "SH0001A"}
	recs := make([]Record, len(ids))
	for i, id := range ids {
		recs[i] = base
		recs[i].TaxiID = id
		recs[i].Speed = float64(i) // per-record fingerprint
	}
	byTaxi := SplitByTaxi(recs)
	if len(byTaxi) != 3 {
		t.Fatalf("got %d taxis, want 3", len(byTaxi))
	}
	wantSpeeds := map[string][]float64{
		"SH0001A": {1, 3, 6},
		"SH0002B": {2, 5},
		"SH0003C": {0, 4},
	}
	for id, speeds := range wantSpeeds {
		tr := byTaxi[id]
		if len(tr) != len(speeds) {
			t.Fatalf("taxi %s has %d records, want %d", id, len(tr), len(speeds))
		}
		for i, want := range speeds {
			if tr[i].Speed != want {
				t.Errorf("taxi %s record %d has speed %g, want %g", id, i, tr[i].Speed, want)
			}
		}
	}
	// Appending to one trajectory must reallocate, not overwrite another's
	// records in the shared backing array.
	extra := base
	extra.TaxiID = "SH0003C"
	_ = append(byTaxi["SH0003C"], extra)
	if byTaxi["SH0001A"][0].Speed != 1 || byTaxi["SH0002B"][0].Speed != 2 {
		t.Error("append to one trajectory corrupted a neighbouring one")
	}
}

func TestSplitByTaxiEmpty(t *testing.T) {
	if got := SplitByTaxi(nil); len(got) != 0 {
		t.Fatalf("SplitByTaxi(nil) returned %d groups", len(got))
	}
}

func TestTrajectorySorted(t *testing.T) {
	base := sampleRecord()
	later := base
	later.Time = base.Time.Add(time.Minute)
	if !(Trajectory{base, later}).Sorted() {
		t.Error("ordered trajectory reported unsorted")
	}
	if (Trajectory{later, base}).Sorted() {
		t.Error("disordered trajectory reported sorted")
	}
	if !(Trajectory{}).Sorted() || !(Trajectory{base}).Sorted() {
		t.Error("trivial trajectories reported unsorted")
	}
}

func TestRecordEqualIgnoresSubsecond(t *testing.T) {
	a := sampleRecord()
	b := a
	b.Time = a.Time.Add(300 * time.Millisecond)
	if !a.Equal(b) {
		t.Error("records differing only in sub-second time compare unequal")
	}
}

func BenchmarkFormatText(b *testing.B) {
	r := sampleRecord()
	for i := 0; i < b.N; i++ {
		_ = r.FormatText()
	}
}

func BenchmarkParseText(b *testing.B) {
	line := sampleRecord().FormatText()
	for i := 0; i < b.N; i++ {
		if _, err := ParseText(line); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendBinary(b *testing.B) {
	r := sampleRecord()
	buf := make([]byte, 0, 64)
	for i := 0; i < b.N; i++ {
		buf = r.AppendBinary(buf[:0])
	}
}

func BenchmarkDecodeBinary(b *testing.B) {
	buf := sampleRecord().AppendBinary(nil)
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeBinary(buf); err != nil {
			b.Fatal(err)
		}
	}
}
