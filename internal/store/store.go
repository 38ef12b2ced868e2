// Package store is an embedded append-only store for MDT log records: the
// repository's stand-in for the PostgreSQL system the deployed engine reads
// from (§7.1). Records are partitioned per taxi and packed into
// time-ordered binary blocks. The analytics engine reads them back with
// global time-window scans: a k-way merge that walks every partition's
// blocks in place, skipping blocks wholly outside the window.
//
// A Store serializes to a single file (Save/Load) with a magic header and
// per-block time index. The package also holds Log (log.go), the
// checksummed append-only log under the ingest WAL and the history store.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
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
// non-decreasing Unix-second order across the whole run.
type partition struct {
	blocks [][]mdt.Record
	lastT  int64
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

// Append adds one record. Records must arrive in non-decreasing time order
// per taxi (a globally time-ordered feed satisfies this).
func (s *Store) Append(r mdt.Record) error {
	p := s.parts[r.TaxiID]
	if p == nil {
		p = &partition{}
		s.parts[r.TaxiID] = p
		s.order = append(s.order, r.TaxiID)
	}
	t := r.Time.Unix()
	n := len(p.blocks)
	if n > 0 && t < p.lastT {
		return fmt.Errorf("%w %s: %v after %v", ErrOutOfOrder, r.TaxiID, r.Time, time.Unix(p.lastT, 0).UTC())
	}
	if n == 0 || len(p.blocks[n-1]) >= blockTarget {
		p.blocks = append(p.blocks, nil)
		n++
	}
	p.blocks[n-1] = append(p.blocks[n-1], r)
	p.lastT = t
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

// Scan streams every record with time in [from, to) in global time order
// (ties broken by taxi first-seen order) to fn; fn returning false stops
// the scan early. The window is taken at second resolution (Time.Unix),
// the order at full precision.
//
// Scan is a k-way merge over one cursor per taxi that walks the taxi's
// blocks in place, so no record is copied before fn sees it. The merge
// heap holds each cursor's current record as an integer key — Unix
// second, nanosecond, first-seen taxi order — so a heap step compares
// integers and moves 16 bytes.
func (s *Store) Scan(from, to time.Time, fn func(mdt.Record) bool) {
	fromS, toS := from.Unix(), to.Unix()
	cursors := make([]scanCursor, 0, len(s.order))
	h := make(mergeHeap, 0, len(s.order))
	for _, id := range s.order {
		c := scanCursor{blocks: s.parts[id].blocks}
		c.seek(fromS)
		if k, ok := c.key(toS); ok {
			k.c = int32(len(cursors))
			cursors = append(cursors, c)
			h = append(h, k)
		}
	}
	h.init()
	for len(h) > 0 {
		c := &cursors[h[0].c]
		if !fn(c.recs[0]) {
			return
		}
		c.recs = c.recs[1:]
		if k, ok := c.key(toS); ok {
			h[0].sec, h[0].nsec = k.sec, k.nsec
			h.down(0)
		} else {
			h.pop()
		}
	}
}

// scanCursor walks one taxi's records in place: recs[0] is the current
// record, the rest of recs and then blocks are still to come.
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

// key moves on to the next block when recs is spent and returns the merge
// key of the current record; ok is false once the taxi has no record
// before second toS (its records are in time order, so none follow).
func (c *scanCursor) key(toS int64) (k mergeKey, ok bool) {
	for len(c.recs) == 0 {
		if len(c.blocks) == 0 {
			return k, false
		}
		c.recs, c.blocks = c.blocks[0], c.blocks[1:]
	}
	t := c.recs[0].Time
	k.sec, k.nsec = t.Unix(), int32(t.Nanosecond())
	return k, k.sec < toS
}

// mergeKey orders the merge: a cursor's current record time, then the
// cursor's index c, which follows first-seen taxi order.
type mergeKey struct {
	sec  int64
	nsec int32
	c    int32
}

func (a mergeKey) less(b mergeKey) bool {
	if a.sec != b.sec {
		return a.sec < b.sec
	}
	if a.nsec != b.nsec {
		return a.nsec < b.nsec
	}
	return a.c < b.c
}

// mergeHeap is a binary min-heap of merge keys.
type mergeHeap []mergeKey

func (h mergeHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *mergeHeap) pop() {
	old := *h
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	h.down(0)
}

func (h mergeHeap) down(i int) {
	n := len(h)
	for {
		small := i
		if l := 2*i + 1; l < n && h[l].less(h[small]) {
			small = l
		}
		if r := 2*i + 2; r < n && h[r].less(h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
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
// records, all of the partition's taxi, in time order, between the
// header's first and last second. A block's payload size must be exactly
// what its record count encodes to, so a crafted header cannot make Load
// allocate more than one legal block before the payload is read. One
// payload buffer serves every block, and each record shares its
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
		p := &partition{lastT: math.MinInt64}
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
				t := r.Time.Unix()
				if r.TaxiID != id || t < p.lastT {
					return fmt.Errorf("store: %s block record %d misfiled or out of order: %w", id, i, errBadFile)
				}
				b[i], p.lastT, payload = r, t, payload[n:]
			}
			if int64(hdr[1]) != b[0].Time.Unix() || int64(hdr[2]) != p.lastT {
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
