// Package store is an embedded append-only store for MDT log records: the
// repository's stand-in for the PostgreSQL system the deployed engine reads
// from (§7.1). A Store keeps its records in scan order — Unix nanoseconds,
// then taxi ID, then append order — in blocks of at most 512, so a global
// time-window Scan is a binary search and a walk. A feed appended in that
// order, such as a loaded file, is never sorted; any other interleaving
// is sorted once, by the first read after it.
//
// A Store serializes to a single file (Save/Load) of CRC32C frames in the
// Log's framing. The package also holds Log (log.go), the checksummed
// append-only log under the ingest WAL and the history store.
package store

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"taxiqueue/internal/geo"
	"taxiqueue/internal/mdt"
)

// blockTarget is the most records a block (and a file frame) holds.
const blockTarget = 512

var (
	// ErrOutOfOrder is returned when an append violates per-taxi time order.
	ErrOutOfOrder = errors.New("store: append out of time order for taxi")
	errBadFile    = errors.New("store: bad file format")
)

// Store is the embedded MDT log store. It is not safe for concurrent
// mutation; concurrent reads are fine.
type Store struct {
	// blocks hold the records, in scan order unless unsorted; none is empty
	// and all but the last are full: record i is blocks[i/512][i%512].
	blocks   [][]mdt.Record
	count    int
	newest   map[string]int64 // each taxi's newest Unix nanoseconds
	mu       sync.Mutex       // held by the sort the first read after an unordered append runs
	unsorted bool             // an append sorted before the record appended before it
}

// New returns an empty store.
func New() *Store { return &Store{newest: make(map[string]int64)} }

// Append adds one record. It accepts only what Save can write
// (mdt.Record.CheckFrame), and records must arrive in non-decreasing time
// order per taxi at full precision (a globally time-ordered feed satisfies
// this); otherwise it returns an error and the store is unchanged. Taxis
// may interleave in any way.
func (s *Store) Append(r mdt.Record) error {
	if err := r.CheckFrame(); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	t := r.Time.UnixNano()
	if last, ok := s.newest[r.TaxiID]; ok && t < last {
		return fmt.Errorf("%w %s: %v after %v", ErrOutOfOrder, r.TaxiID, r.Time, time.Unix(0, last).UTC())
	}
	if s.count > 0 {
		p := s.at(s.count - 1)
		s.unsorted = s.unsorted || t < p.Time.UnixNano() || t == p.Time.UnixNano() && r.TaxiID < p.TaxiID
	}
	if s.count%blockTarget == 0 {
		s.blocks = append(s.blocks, make([]mdt.Record, 0, blockTarget))
	}
	last := &s.blocks[len(s.blocks)-1]
	*last = append(*last, r)
	s.newest[r.TaxiID] = t
	s.count++
	return nil
}

// AppendAll appends a batch, stopping at the first error.
func (s *Store) AppendAll(recs []mdt.Record) error {
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the total number of stored records.
func (s *Store) Len() int { return s.count }

// Taxis returns the stored taxi IDs in ascending order.
func (s *Store) Taxis() []string {
	ids := make([]string, 0, len(s.newest))
	for id := range s.newest {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// sortKey is a record's Unix nanoseconds and its position in the store.
type sortKey struct {
	ns int64
	i  int
}

// inOrder puts the records in scan order if an append left them out of it.
// It sorts keys rather than records, which would be copied on every swap:
// by time, then taxi ID, then position, which is append order. Then it
// re-cuts the records into full blocks.
func (s *Store) inOrder() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.unsorted {
		return
	}
	keys := make([]sortKey, s.count)
	for i := range keys {
		keys[i] = sortKey{s.at(i).Time.UnixNano(), i}
	}
	slices.SortFunc(keys, func(a, b sortKey) int {
		if a.ns != b.ns {
			return cmp.Compare(a.ns, b.ns)
		}
		return cmp.Or(strings.Compare(s.at(a.i).TaxiID, s.at(b.i).TaxiID), cmp.Compare(a.i, b.i))
	})
	blocks := make([][]mdt.Record, 0, len(s.blocks))
	for len(keys) > 0 {
		b := make([]mdt.Record, min(len(keys), blockTarget))
		for j := range b {
			b[j] = *s.at(keys[j].i)
		}
		blocks, keys = append(blocks, b), keys[len(b):]
	}
	s.blocks, s.unsorted = blocks, false
}

// Scan streams every record with time in [from, to) in scan order — time,
// then taxi ID, then append order — to fn; fn returning false stops the
// scan early. The window is taken at second resolution (Time.Unix), the
// order at full precision. Scan binary-searches the first record in the
// window and walks on from there.
func (s *Store) Scan(from, to time.Time, fn func(mdt.Record) bool) {
	s.inOrder()
	fromS, toS := from.Unix(), to.Unix()
	for i := sort.Search(s.count, func(i int) bool { return s.at(i).Time.Unix() >= fromS }); i < s.count; i++ {
		if r := s.at(i); r.Time.Unix() >= toS || !fn(*r) {
			return
		}
	}
}

// at is the record at position i.
func (s *Store) at(i int) *mdt.Record { return &s.blocks[i/blockTarget][i%blockTarget] }

// persistence ----------------------------------------------------------------

// The day file (format TQDAY1) is the store's records in scan order:
//
//	magic   "TQDAY1\n\x00" (8 bytes)
//	frame   the header: uvarint record count, uvarint taxi count, then each
//	        taxi ID in ascending order as a length byte and its bytes
//	frames  the records, blockTarget per frame and the last one shorter:
//	        uvarint record count, then per record a uvarint taxi-table
//	        index, u64 LE Unix nanoseconds, the float64 bits of latitude,
//	        longitude and speed (u64 LE each) and the state byte
//
// Each frame is u32 LE payload length | u32 LE CRC32C | payload, the Log's
// framing, so every byte after the magic is checksummed. The header's
// record count fixes how many block frames follow and how many records
// each holds, so a file cut at a frame boundary is as bad as one cut
// inside a frame. Records do not use mdt's binary frame, which repeats the
// taxi ID in every record: the table index makes the file about 19 %
// smaller, and a decoded record shares its taxi's string with no
// per-record lookup.
var dayMagic = [8]byte{'T', 'Q', 'D', 'A', 'Y', '1', '\n', 0}

// recordBytes is a record's encoding after its taxi-table index.
const recordBytes = 8 + 8 + 8 + 8 + 1

// SaveFile atomically writes the store to path: the bytes go to a fresh
// temp file in path's directory which is synced and renamed over path, so a
// crash mid-save can never corrupt or truncate an existing on-disk copy —
// readers see either the old store or the new one, never a torn write.
// Errors are wrapped with the destination path.
func (s *Store) SaveFile(path string) error { return s.SaveFileFS(OS, path) }

// SaveFileFS is SaveFile over an explicit filesystem — the seam the chaos
// harness uses to inject short writes, fsync errors and crash-before-rename
// into the durability path. A failed save always removes its temp file and
// never touches the existing on-disk copy.
func (s *Store) SaveFileFS(fsys FS, path string) error {
	f, err := fsys.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: save %s: %w", path, err)
	}
	// CreateTemp defaults to 0600; match what os.Create would have given.
	// Each step runs only if every one before it succeeded.
	err = f.Chmod(0o644)
	if err == nil {
		err = s.Save(f)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(f.Name(), path)
	}
	if err != nil {
		fsys.Remove(f.Name())
		return fmt.Errorf("store: save %s: %w", path, err)
	}
	return nil
}

// LoadFile reads a store previously written by SaveFile (or Save to a
// file). Errors are wrapped with the source path.
func LoadFile(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: load %s: %w", path, err)
	}
	defer f.Close()
	s, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("store: load %s: %w", path, err)
	}
	return s, nil
}

// Save writes the store to w in the day-file format, one frame per block.
// When w is the store's only on-disk copy, prefer SaveFile: writing in
// place can corrupt that copy if the process dies mid-write.
func (s *Store) Save(w io.Writer) error {
	s.inOrder()
	ids := s.Taxis()
	index := make(map[string]uint64, len(ids))
	p := binary.AppendUvarint(nil, uint64(s.count))
	p = binary.AppendUvarint(p, uint64(len(ids)))
	for i, id := range ids {
		index[id] = uint64(i)
		p = append(append(p, byte(len(id))), id...)
	}
	// A bufio.Writer's first error sticks and Flush returns it.
	bw := bufio.NewWriterSize(w, 1<<20)
	frame := appendFrame(dayMagic[:], p) // a copy of the magic, then the header
	for _, b := range s.blocks {
		bw.Write(frame)
		p = binary.AppendUvarint(p[:0], uint64(len(b)))
		for i := range b {
			p = appendRecord(p, index[b[i].TaxiID], &b[i])
		}
		frame = appendFrame(frame[:0], p)
	}
	bw.Write(frame)
	return bw.Flush()
}

// appendRecord appends r's encoding in a block frame, naming its taxi by
// its index in the taxi table.
func appendRecord(p []byte, idx uint64, r *mdt.Record) []byte {
	p = binary.AppendUvarint(p, idx)
	p = binary.LittleEndian.AppendUint64(p, uint64(r.Time.UnixNano()))
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(r.Pos.Lat))
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(r.Pos.Lon))
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(r.Speed))
	return append(p, byte(r.State))
}

// badFile is an errBadFile naming what is wrong.
func badFile(format string, args ...any) error {
	return fmt.Errorf("store: "+format+": %w", append(args, errBadFile)...)
}

// Load reads a store previously written by Save and accepts exactly that:
// every frame's CRC; taxi IDs strictly ascending, each used by a record;
// as many blocks as the header's record count makes, each of blockTarget
// records but the last; every payload byte used; taxi indexes in range;
// valid states; records in scan order; each uvarint in its shortest form;
// nothing after the last block. Any damage, a torn tail included, is an
// error. A block frame longer than the largest legal block fails before it
// is read, and each block is decoded into one exactly-sized slice.
func Load(r io.Reader) (*Store, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || magic != dayMagic {
		return nil, badFile("not a day file")
	}
	var buf bytes.Buffer
	p, err := readFrame(br, math.MaxUint32, &buf)
	if err == io.EOF {
		return nil, badFile("missing header")
	} else if err != nil {
		return nil, err
	}
	total, ids, err := parseHeader(p)
	if err != nil {
		return nil, err
	}
	// Each taxi's newest time and whether it has a record, by table index:
	// a map write per record would cost more than the decode.
	newest, used := make([]int64, len(ids)), make([]bool, len(ids))
	limit := uvarintLen(blockTarget) + blockTarget*(uvarintLen(uint64(max(len(ids), 1)-1))+recordBytes)
	f64 := func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }
	s := New()
	prevNs, prevIdx := int64(math.MinInt64), uint64(0)
	for uint64(s.count) < total {
		p, err := readFrame(br, uint32(limit), &buf)
		if err == io.EOF {
			return nil, badFile("the file ends after %d of %d records", s.count, total)
		} else if err != nil {
			return nil, err
		}
		nb := len(s.blocks)
		nRecs, k := uvarint(p)
		if want := min(total-uint64(s.count), blockTarget); k == 0 || nRecs != want {
			return nil, badFile("block %d: record count is not the %d the header leaves", nb, want)
		}
		p = p[k:]
		if uint64(len(p)) < nRecs*(1+recordBytes) {
			return nil, badFile("block %d: %d bytes cannot hold %d records", nb, len(p), nRecs)
		}
		b := make([]mdt.Record, nRecs)
		for i := range b {
			idx, k := uvarint(p)
			if k == 0 || len(p) < k+recordBytes {
				return nil, badFile("block %d record %d: torn", nb, i)
			}
			if idx >= uint64(len(ids)) {
				return nil, badFile("block %d record %d: taxi index %d of %d", nb, i, idx, len(ids))
			}
			f := p[k : k+recordBytes]
			p = p[k+recordBytes:]
			ns := int64(binary.LittleEndian.Uint64(f))
			if ns < prevNs || ns == prevNs && idx < prevIdx {
				return nil, badFile("block %d record %d: out of scan order", nb, i)
			}
			state := mdt.State(f[32])
			if !state.Valid() {
				return nil, badFile("block %d record %d: invalid state %d", nb, i, state)
			}
			b[i] = mdt.Record{Time: time.Unix(0, ns).UTC(), TaxiID: ids[idx], State: state,
				Pos: geo.Point{Lat: f64(f[8:]), Lon: f64(f[16:])}, Speed: f64(f[24:])}
			prevNs, prevIdx = ns, idx
			newest[idx] = ns
			used[idx] = true
		}
		if len(p) != 0 {
			return nil, badFile("block %d: %d stray bytes", nb, len(p))
		}
		s.blocks = append(s.blocks, b)
		s.count += len(b)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, badFile("data after the last of %d records", total)
	}
	for i, id := range ids {
		if !used[i] {
			return nil, badFile("taxi %q has no record", id)
		}
		s.newest[id] = newest[i]
	}
	return s, nil
}

// readFrame reads one frame into buf and returns its payload, or io.EOF at
// a clean end of input. A payload longer than limit fails before it is
// read; buf grows only as the payload's bytes arrive.
func readFrame(br *bufio.Reader, limit uint32, buf *bytes.Buffer) ([]byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(br, hdr[:]); err == io.EOF {
		return nil, io.EOF
	} else if err != nil {
		return nil, badFile("torn frame header")
	}
	size := binary.LittleEndian.Uint32(hdr[:4])
	if size > limit {
		return nil, badFile("frame of %d bytes, at most %d", size, limit)
	}
	buf.Reset()
	if n, _ := io.CopyN(buf, br, int64(size)); n != int64(size) {
		return nil, badFile("torn frame: %d of %d bytes", n, size)
	}
	if frameCRC(hdr[:4], buf.Bytes()) != binary.LittleEndian.Uint32(hdr[4:]) {
		return nil, badFile("frame checksum mismatch")
	}
	return buf.Bytes(), nil
}

// parseHeader decodes the header frame's payload: the record count, then
// the taxi table, IDs strictly ascending, with no byte left over.
func parseHeader(p []byte) (total uint64, ids []string, err error) {
	total, k := uvarint(p)
	if k == 0 {
		return 0, nil, badFile("bad record count")
	}
	p = p[k:]
	n, k := uvarint(p)
	if k == 0 || n > uint64(len(p)) { // each ID takes at least its length byte
		return 0, nil, badFile("bad taxi count")
	}
	ids = make([]string, 0, n)
	for p = p[k:]; uint64(len(ids)) < n; {
		if len(p) == 0 || len(p) <= int(p[0]) {
			return 0, nil, badFile("torn taxi table")
		}
		id := string(p[1 : 1+int(p[0])]) // int: 1+p[0] wraps to 0 at 255
		if len(ids) > 0 && id <= ids[len(ids)-1] {
			return 0, nil, badFile("taxi %q out of order", id)
		}
		ids, p = append(ids, id), p[1+len(id):]
	}
	if len(p) != 0 {
		return 0, nil, badFile("%d stray bytes after the taxi table", len(p))
	}
	return total, ids, nil
}

// uvarint decodes a uvarint in its shortest form, the only one Save writes,
// and returns k = 0 for any other bytes.
func uvarint(b []byte) (v uint64, k int) {
	if v, k = binary.Uvarint(b); k <= 0 || k != uvarintLen(v) {
		return 0, 0
	}
	return v, k
}

// uvarintLen is the length of v's shortest uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }
