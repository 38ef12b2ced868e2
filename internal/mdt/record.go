package mdt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"taxiqueue/internal/geo"
)

// Record is one event-driven MDT log entry with the six fields selected in
// Table 2: timestamp, taxi ID, longitude, latitude, instantaneous speed and
// taxi state.
type Record struct {
	Time   time.Time // event timestamp (second resolution in the log format)
	TaxiID string    // vehicle registration, e.g. "SH0001A"
	Pos    geo.Point // GPS location
	Speed  float64   // instantaneous speed, km/h
	State  State     // taxi state at the event
}

// timeLayout matches the sample record of Table 2: "01/08/2008 19:04:51".
const timeLayout = "02/01/2006 15:04:05"

// FormatText renders r as one line of the text log format of Table 2:
//
//	01/08/2008 19:04:51,SH0001A,103.7999,1.33795,54,POB
//
// Fields are comma-separated; longitude precedes latitude as in the paper.
func (r Record) FormatText() string {
	return fmt.Sprintf("%s,%s,%.5f,%.5f,%g,%s",
		r.Time.UTC().Format(timeLayout), r.TaxiID, r.Pos.Lon, r.Pos.Lat, r.Speed, r.State)
}

// ParseText parses one text-format log line produced by FormatText.
func ParseText(line string) (Record, error) {
	parts := strings.Split(strings.TrimSpace(line), ",")
	if len(parts) != 6 {
		return Record{}, fmt.Errorf("mdt: record has %d fields, want 6: %q", len(parts), line)
	}
	ts, err := time.Parse(timeLayout, parts[0])
	if err != nil {
		return Record{}, fmt.Errorf("mdt: bad timestamp: %w", err)
	}
	lon, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return Record{}, fmt.Errorf("mdt: bad longitude: %w", err)
	}
	lat, err := strconv.ParseFloat(parts[3], 64)
	if err != nil {
		return Record{}, fmt.Errorf("mdt: bad latitude: %w", err)
	}
	speed, err := strconv.ParseFloat(parts[4], 64)
	if err != nil {
		return Record{}, fmt.Errorf("mdt: bad speed: %w", err)
	}
	state, err := ParseState(parts[5])
	if err != nil {
		return Record{}, err
	}
	return Record{
		Time:   ts.UTC(),
		TaxiID: parts[1],
		Pos:    geo.Point{Lat: lat, Lon: lon},
		Speed:  speed,
		State:  state,
	}, nil
}

// Equal reports whether r and o carry identical field values (timestamps
// compared at second resolution, matching the log format).
func (r Record) Equal(o Record) bool {
	return r.Time.Unix() == o.Time.Unix() && r.TaxiID == o.TaxiID &&
		r.Pos == o.Pos && r.Speed == o.Speed && r.State == o.State
}

// binary codec -------------------------------------------------------------

// binMagic guards against decoding garbage; bumped on layout changes
// (0x4D44 stored whole seconds; 0x4D45 stores nanoseconds).
const binMagic = 0x4D45 // "ME"

var errBadMagic = errors.New("mdt: bad binary record magic")

// MaxTaxiIDLen is the longest taxi ID the binary codec can carry: its
// length travels in one byte.
const MaxTaxiIDLen = 255

// The binary frame carries a time as int64 Unix nanoseconds, so only this
// span survives it: 1677-09-21 … 2262-04-11.
var (
	minFrameTime = time.Unix(0, math.MinInt64)
	maxFrameTime = time.Unix(0, math.MaxInt64)
)

// CheckFrame reports whether r survives its binary frame unchanged: a taxi
// ID of at most MaxTaxiIDLen bytes, a time within 1677-09-21 … 2262-04-11
// and one of the 11 states. AppendBinary panics on a longer ID, writes a
// time outside the span as a different time, and writes a state that
// DecodeBinary rejects.
func (r Record) CheckFrame() error {
	if len(r.TaxiID) > MaxTaxiIDLen {
		return fmt.Errorf("mdt: taxi ID longer than %d bytes", MaxTaxiIDLen)
	}
	if r.Time.Before(minFrameTime) || r.Time.After(maxFrameTime) {
		return fmt.Errorf("mdt: time %s outside the binary frame's range", r.Time.UTC().Format(time.RFC3339))
	}
	if !r.State.Valid() {
		return fmt.Errorf("mdt: invalid state %d", uint8(r.State))
	}
	return nil
}

// BinarySize is the length of the binary encoding of a record whose taxi ID
// is idLen bytes long.
func BinarySize(idLen int) int { return 3 + idLen + 8 + 8 + 8 + 8 + 1 }

// AppendBinary appends the fixed-prefix binary encoding of r to dst and
// returns the extended slice. Layout: magic(2) idLen(1) id(idLen)
// unixNano(8) lat(8) lon(8) speed(4 as float32 centi-km/h would lose
// precision, so float64) state(1). Times keep full nanosecond precision so
// a WAL replay reproduces wait durations exactly.
func (r Record) AppendBinary(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, binMagic)
	if len(r.TaxiID) > MaxTaxiIDLen {
		panic("mdt: taxi ID longer than 255 bytes")
	}
	dst = append(dst, byte(len(r.TaxiID)))
	dst = append(dst, r.TaxiID...)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Time.UnixNano()))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(r.Pos.Lat))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(r.Pos.Lon))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(r.Speed))
	dst = append(dst, byte(r.State))
	return dst
}

// DecodeBinary decodes one binary record from b and returns it along with
// the number of bytes consumed.
func DecodeBinary(b []byte) (Record, int, error) {
	if len(b) < 3 {
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	if binary.BigEndian.Uint16(b) != binMagic {
		return Record{}, 0, errBadMagic
	}
	idLen := int(b[2])
	n := BinarySize(idLen)
	if len(b) < n {
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	id := string(b[3 : 3+idLen])
	off := 3 + idLen
	nano := int64(binary.BigEndian.Uint64(b[off:]))
	lat := math.Float64frombits(binary.BigEndian.Uint64(b[off+8:]))
	lon := math.Float64frombits(binary.BigEndian.Uint64(b[off+16:]))
	speed := math.Float64frombits(binary.BigEndian.Uint64(b[off+24:]))
	state := State(b[off+32])
	if !state.Valid() {
		return Record{}, 0, fmt.Errorf("mdt: invalid state byte %d", b[off+32])
	}
	return Record{
		Time:   time.Unix(0, nano).UTC(),
		TaxiID: id,
		Pos:    geo.Point{Lat: lat, Lon: lon},
		Speed:  speed,
		State:  state,
	}, n, nil
}

// stream helpers ------------------------------------------------------------

// WriteText writes recs to w in text format, one record per line.
func WriteText(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	for _, r := range recs {
		if _, err := bw.WriteString(r.FormatText()); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText reads all text-format records from r. Blank lines and lines
// starting with '#' are skipped. It stops at the first malformed line and
// returns the records read so far together with the error.
func ReadText(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Record
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rec, err := ParseText(line)
		if err != nil {
			return out, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// Trajectory is a temporally ordered sequence of one taxi's records
// (Definition 1). The analytics code treats it as read-only.
type Trajectory []Record

// Sorted reports whether the trajectory is non-decreasing in time.
func (tr Trajectory) Sorted() bool {
	for i := 1; i < len(tr); i++ {
		if tr[i].Time.Before(tr[i-1].Time) {
			return false
		}
	}
	return true
}

// SplitByTaxi groups records by taxi ID into per-taxi trajectories,
// preserving the relative order of each taxi's records. The input must be
// time-ordered per taxi (globally time-ordered input satisfies this).
//
// The grouping is a counting sort into one backing array: a first pass
// tallies per-taxi record counts, a second places each record at its
// taxi's cursor, and each trajectory is a capacity-clamped sub-slice of the
// backing array — no per-taxi append growth, and the whole dataset stays
// contiguous for the PEA scans that follow.
func SplitByTaxi(recs []Record) map[string]Trajectory {
	type group struct {
		id     string
		cursor int // fill position during placement; ends at the group's limit
		count  int
	}
	idx := make(map[string]int32, 64)
	var groups []group
	for i := range recs {
		id := recs[i].TaxiID
		if g, ok := idx[id]; ok {
			groups[g].count++
		} else {
			idx[id] = int32(len(groups))
			groups = append(groups, group{id: id, count: 1})
		}
	}
	off := 0
	for i := range groups {
		groups[i].cursor = off
		off += groups[i].count
	}
	backing := make([]Record, len(recs))
	for i := range recs {
		g := &groups[idx[recs[i].TaxiID]]
		backing[g.cursor] = recs[i]
		g.cursor++
	}
	out := make(map[string]Trajectory, len(groups))
	for i := range groups {
		g := groups[i]
		out[g.id] = Trajectory(backing[g.cursor-g.count : g.cursor : g.cursor])
	}
	return out
}
