// Package store is an embedded append-only store for MDT log records: the
// repository's stand-in for the PostgreSQL system the deployed engine reads
// from (§7.1). Records are partitioned per taxi and packed into
// time-ordered binary blocks. The analytics engine reads them back with
// global time-window scans that merge every partition's blocks in place,
// slab by slab, skipping blocks wholly outside the window.
//
// A Store serializes to a single file (Save/Load) with a magic header and
// per-block time index. The package also holds Log (log.go), the
// checksummed append-only log under the ingest WAL and the history store.
package store

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"taxiqueue/internal/mdt"
)

// blockTarget is the most records a block holds; a partition starts a new
// block once its last one is full.
const blockTarget = 512

var (
	// ErrOutOfOrder is returned when an append violates per-taxi time order.
	ErrOutOfOrder = errors.New("store: append out of time order for taxi")
	errBadFile    = errors.New("store: bad file format")
)

// partition holds one taxi's records as a run of blocks, each non-empty and
// at most blockTarget long; appends go to the last block. Records are in
// non-decreasing time order at full precision across the whole run; last
// is the newest one's Unix nanoseconds.
type partition struct {
	blocks [][]mdt.Record
	last   int64
}

// Store is the embedded MDT log store. It is not safe for concurrent
// mutation; concurrent reads after loading are fine.
type Store struct {
	parts map[string]*partition
	order []string // taxi IDs in first-seen order, for deterministic scans
	count int
}

// New returns an empty store.
func New() *Store {
	return &Store{parts: make(map[string]*partition)}
}

// Append adds one record. It accepts only what Save can write
// (mdt.Record.CheckFrame), and records must arrive in non-decreasing time
// order per taxi at full precision (a globally time-ordered feed satisfies
// this); otherwise it returns an error and the store is unchanged.
func (s *Store) Append(r mdt.Record) error {
	if err := r.CheckFrame(); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	t := r.Time.UnixNano()
	p := s.parts[r.TaxiID]
	if p == nil {
		p = &partition{}
		s.parts[r.TaxiID] = p
		s.order = append(s.order, r.TaxiID)
	}
	n := len(p.blocks)
	if n > 0 && t < p.last {
		return fmt.Errorf("%w %s: %v after %v", ErrOutOfOrder, r.TaxiID, r.Time, time.Unix(0, p.last).UTC())
	}
	if n == 0 || len(p.blocks[n-1]) >= blockTarget {
		p.blocks = append(p.blocks, nil)
		n++
	}
	p.blocks[n-1] = append(p.blocks[n-1], r)
	p.last = t
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

// Taxis returns the stored taxi IDs in first-seen order.
func (s *Store) Taxis() []string {
	return append([]string(nil), s.order...)
}

// slabSeconds is the width of Scan's merge slab in whole seconds. A slab's
// second offsets fit in a byte.
const slabSeconds = 256

// Scan streams every record with time in [from, to) in global time order
// (ties broken by taxi first-seen order) to fn; fn returning false stops
// the scan early. The window is taken at second resolution (Time.Unix),
// the order at full precision.
//
// Scan merges the window in slabs of slabSeconds whole seconds, each
// starting at the earliest second still to come. It keeps one cursor per
// taxi that walks the taxi's blocks in place. In each slab it visits the
// live cursors once, in first-seen taxi order, and notes each record below
// the slab's end as a compact entry: its second in the slab, its
// nanosecond and its cursor. A counting sort by second, then a stable sort
// by nanosecond within each second, orders the entries; ties keep the
// visiting order, which is first-seen taxi order and then each taxi's
// append order. Each entry then pops the next record from its cursor.
// That record is the entry's because Append and Load hold each taxi's
// records in time order at full precision. No record is copied before fn
// sees it, and the scratch grows with the number of taxis and the records
// in one slab, never with the window's length.
func (s *Store) Scan(from, to time.Time, fn func(mdt.Record) bool) {
	fromS, toS := from.Unix(), to.Unix()
	cursors := make([]scanCursor, 0, len(s.order))
	start := int64(math.MaxInt64)
	for _, id := range s.order {
		c := scanCursor{blocks: s.parts[id].blocks}
		c.seek(fromS)
		if sec, ok := c.head(toS); ok {
			cursors = append(cursors, c)
			start = min(start, sec)
		}
	}
	var slab slabSort
	for start < toS {
		end := min(start+slabSeconds, toS)
		// Visit the cursors in order, dropping those with no record left
		// before toS, and find where the next slab starts.
		next := int64(math.MaxInt64)
		live := cursors[:0]
		for _, c := range cursors {
			if _, ok := c.head(toS); !ok {
				continue
			}
			ci := uint32(len(live))
			live = append(live, c)
			for recs, blocks := c.recs, c.blocks; ; recs = recs[1:] {
				if len(recs) == 0 {
					if len(blocks) == 0 {
						break
					}
					recs, blocks = blocks[0], blocks[1:]
				}
				t := recs[0].Time
				sec := t.Unix()
				if sec >= end {
					next = min(next, sec)
					break
				}
				slab.add(uint8(sec-start), uint32(t.Nanosecond()), ci)
			}
		}
		cursors = live
		for _, e := range slab.sort() {
			if !fn(cursors[e.c].pop()) {
				return
			}
		}
		start = next
	}
}

// scanCursor walks one taxi's records in place: recs[0] is the current
// record, the rest of recs and then blocks are still to come. recs is
// empty only once the taxi has no record left.
type scanCursor struct {
	recs   []mdt.Record
	blocks [][]mdt.Record
}

// seek drops the cursor's records before second fromS: whole blocks by
// their last record, then the first overlapping block by binary search.
func (c *scanCursor) seek(fromS int64) {
	for len(c.blocks) > 0 && c.blocks[0][len(c.blocks[0])-1].Time.Unix() < fromS {
		c.blocks = c.blocks[1:]
	}
	if len(c.blocks) == 0 {
		return
	}
	b := c.blocks[0]
	c.recs = b[sort.Search(len(b), func(i int) bool { return b[i].Time.Unix() >= fromS }):]
	c.blocks = c.blocks[1:]
}

// head returns the current record's second; ok is false once the taxi has
// no record before second toS (its records are in time order, so none
// follow).
func (c *scanCursor) head(toS int64) (sec int64, ok bool) {
	if len(c.recs) == 0 {
		return 0, false
	}
	sec = c.recs[0].Time.Unix()
	return sec, sec < toS
}

// pop returns the current record and moves on, to the next block when recs
// is spent (blocks are never empty).
func (c *scanCursor) pop() mdt.Record {
	r := c.recs[0]
	c.recs = c.recs[1:]
	if len(c.recs) == 0 && len(c.blocks) > 0 {
		c.recs, c.blocks = c.blocks[0], c.blocks[1:]
	}
	return r
}

// slabEntry is one record of a slab: its nanosecond and its cursor.
type slabEntry struct {
	nsec uint32
	c    uint32
}

// slabSort orders one slab's entries by time. add takes them in visiting
// order; sort returns them by second, then nanosecond, ties in visiting
// order, and empties the slab for the next one.
type slabSort struct {
	count   [slabSeconds]int // entries per second offset, then bucket ends
	secs    []uint8          // secs[i] is entries[i]'s second offset
	entries []slabEntry
	sorted  []slabEntry
}

func (ss *slabSort) add(sec uint8, nsec, c uint32) {
	ss.count[sec]++
	ss.secs = append(ss.secs, sec)
	ss.entries = append(ss.entries, slabEntry{nsec: nsec, c: c})
}

// insertionMax is the longest second sorted by insertion; a longer one
// takes slices.SortStableFunc.
const insertionMax = 64

func (ss *slabSort) sort() []slabEntry {
	pos := 0
	for d, n := range ss.count {
		ss.count[d] = pos
		pos += n
	}
	ss.sorted = slices.Grow(ss.sorted[:0], len(ss.entries))[:len(ss.entries)]
	for i, e := range ss.entries {
		d := ss.secs[i]
		ss.sorted[ss.count[d]] = e
		ss.count[d]++
	}
	lo := 0
	for _, hi := range ss.count {
		sortByNsec(ss.sorted[lo:hi])
		lo = hi
	}
	clear(ss.count[:])
	ss.secs, ss.entries = ss.secs[:0], ss.entries[:0]
	return ss.sorted
}

// sortByNsec is a stable sort of one second's entries by nanosecond.
func sortByNsec(b []slabEntry) {
	if len(b) > insertionMax {
		slices.SortStableFunc(b, func(x, y slabEntry) int { return cmp.Compare(x.nsec, y.nsec) })
		return
	}
	for i := 1; i < len(b); i++ {
		e, j := b[i], i
		for ; j > 0 && b[j-1].nsec > e.nsec; j-- {
			b[j] = b[j-1]
		}
		b[j] = e
	}
}

// persistence ----------------------------------------------------------------

// Version 2 embeds nanosecond-precision record frames (mdt binMagic 0x4D45).
var fileMagic = [8]byte{'T', 'Q', 'S', 'T', '2', 0, 0, 0}

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
	fail := func(err error) error { return fmt.Errorf("store: save %s: %w", path, err) }
	f, err := fsys.CreateTemp(filepath.Dir(path), filepath.Base(path)+tempSuffix+"-*")
	if err != nil {
		return fail(err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		fsys.Remove(tmp)
		return fail(err)
	}
	// CreateTemp defaults to 0600; match what os.Create would have given.
	if err := f.Chmod(0o644); err != nil {
		return cleanup(err)
	}
	if err := s.Save(f); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fail(err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fail(err)
	}
	return nil
}

// tempSuffix marks SaveFileFS temp files.
const tempSuffix = ".tmp"

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

// Save writes the store to w in the single-file format. When w is the
// store's only on-disk copy, prefer SaveFile: writing in place can corrupt
// that copy if the process dies mid-write.
func (s *Store) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(fileMagic[:]); err != nil {
		return err
	}
	// Deterministic on-disk order.
	ids := append([]string(nil), s.order...)
	sort.Strings(ids)
	if err := writeUvarint(bw, uint64(len(ids))); err != nil {
		return err
	}
	var buf []byte
	for _, id := range ids {
		p := s.parts[id]
		if err := writeString(bw, id); err != nil {
			return err
		}
		if err := writeUvarint(bw, uint64(len(p.blocks))); err != nil {
			return err
		}
		for _, b := range p.blocks {
			buf = buf[:0]
			for _, r := range b {
				buf = r.AppendBinary(buf)
			}
			for _, v := range []uint64{uint64(len(b)), uint64(b[0].Time.Unix()), uint64(b[len(b)-1].Time.Unix()), uint64(len(buf))} {
				if err := writeUvarint(bw, v); err != nil {
					return err
				}
			}
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Load reads a store previously written by Save. Any structural damage —
// a torn tail included — is an error.
func Load(r io.Reader) (*Store, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("store: missing header: %w", errBadFile)
	}
	if magic != fileMagic {
		return nil, errBadFile
	}
	s := New()
	if err := loadBody(br, s); err != nil {
		return nil, err
	}
	return s, nil
}

// loadBody reads partitions into s until EOF, failing on the first
// structural error. Everything is checked against what Save writes:
// partitions in ascending taxi-ID order; blocks of at most blockTarget
// records, all of the partition's taxi, in time order at full precision,
// between the header's first and last second. A block's payload size must
// be exactly what its record count encodes to, so a crafted header cannot
// make Load allocate more than one legal block before the payload is read.
// One payload buffer serves every block, and each record shares its
// partition's taxi-ID string.
func loadBody(br *bufio.Reader, s *Store) error {
	nParts, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("store: partition count: %w", err)
	}
	var buf []byte
	for pi := uint64(0); pi < nParts; pi++ {
		id, err := readString(br)
		if err != nil {
			return fmt.Errorf("store: partition %d name: %w", pi, err)
		}
		if pi > 0 && id <= s.order[len(s.order)-1] {
			return fmt.Errorf("store: partition %d: taxi %q out of order: %w", pi, id, errBadFile)
		}
		nBlocks, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("store: %s block count: %w", id, err)
		}
		p := &partition{last: math.MinInt64}
		s.parts[id] = p
		s.order = append(s.order, id)
		recSize := uint64(mdt.BinarySize(len(id)))
		for bi := uint64(0); bi < nBlocks; bi++ {
			var hdr [4]uint64 // record count, first second, last second, payload size
			for i := range hdr {
				if hdr[i], err = binary.ReadUvarint(br); err != nil {
					return fmt.Errorf("store: %s block header: %w", id, err)
				}
			}
			nRecs, size := hdr[0], hdr[3]
			if nRecs > blockTarget || size != nRecs*recSize {
				return fmt.Errorf("store: %s block of %d records in %d bytes: %w", id, nRecs, size, errBadFile)
			}
			if nRecs == 0 {
				continue
			}
			if uint64(cap(buf)) < size {
				buf = make([]byte, size)
			}
			payload := buf[:size]
			if _, err := io.ReadFull(br, payload); err != nil {
				return fmt.Errorf("store: %s torn block payload: %w", id, err)
			}
			b := make([]mdt.Record, nRecs)
			for i := range b {
				r, n, err := mdt.DecodeBinaryID(payload, id)
				if err != nil {
					return fmt.Errorf("store: corrupt block for %s: %w", id, err)
				}
				t := r.Time.UnixNano()
				if r.TaxiID != id || t < p.last {
					return fmt.Errorf("store: %s block record %d misfiled or out of order: %w", id, i, errBadFile)
				}
				b[i], p.last, payload = r, t, payload[n:]
			}
			if int64(hdr[1]) != b[0].Time.Unix() || int64(hdr[2]) != b[len(b)-1].Time.Unix() {
				return fmt.Errorf("store: %s block time index disagrees with its records: %w", id, errBadFile)
			}
			p.blocks = append(p.blocks, b)
			s.count += len(b)
		}
	}
	return nil
}

func writeUvarint(w *bufio.Writer, v uint64) error {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	_, err := w.Write(tmp[:n])
	return err
}

func writeString(w *bufio.Writer, s string) error {
	if err := writeUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

func readString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > mdt.MaxTaxiIDLen {
		return "", errBadFile
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
