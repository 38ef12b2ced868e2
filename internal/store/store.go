// Package store is an embedded append-only store for MDT log records: the
// repository's stand-in for the PostgreSQL system the deployed engine reads
// from (§7.1). Records are partitioned per taxi and packed into
// time-indexed binary blocks, so the two access patterns the analytics
// engine needs are both cheap:
//
//   - per-taxi time-ordered scans (PEA runs per trajectory), and
//   - global time-window scans (slot feature extraction), served by a
//     k-way merge across partitions with block-level time pruning.
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
	"os"
	"path/filepath"
	"sort"
	"time"

	"taxiqueue/internal/mdt"
)

// blockTarget is the record count at which an open block is sealed.
const blockTarget = 512

var (
	// ErrOutOfOrder is returned when an append violates per-taxi time order.
	ErrOutOfOrder = errors.New("store: append out of time order for taxi")
	errBadFile    = errors.New("store: bad file format")
)

// block is a sealed run of consecutive records for one taxi.
type block struct {
	minT, maxT int64 // unix seconds
	recs       []mdt.Record
}

// partition holds one taxi's blocks plus the currently open block.
type partition struct {
	taxiID string
	blocks []block
	open   []mdt.Record
	lastT  int64
	count  int
}

func (p *partition) seal() {
	if len(p.open) == 0 {
		return
	}
	b := block{
		minT: p.open[0].Time.Unix(),
		maxT: p.open[len(p.open)-1].Time.Unix(),
		recs: p.open,
	}
	p.blocks = append(p.blocks, b)
	p.open = nil
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
		p = &partition{taxiID: r.TaxiID}
		s.parts[r.TaxiID] = p
		s.order = append(s.order, r.TaxiID)
	}
	t := r.Time.Unix()
	if p.count > 0 && t < p.lastT {
		return fmt.Errorf("%w %s: %v after %v", ErrOutOfOrder, r.TaxiID, r.Time, time.Unix(p.lastT, 0).UTC())
	}
	p.open = append(p.open, r)
	p.lastT = t
	p.count++
	s.count++
	if len(p.open) >= blockTarget {
		p.seal()
	}
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

// Trajectory returns taxi id's records with time in [from, to), in time
// order. Blocks wholly outside the window are skipped without scanning.
func (s *Store) Trajectory(id string, from, to time.Time) mdt.Trajectory {
	p := s.parts[id]
	if p == nil {
		return nil
	}
	fromS, toS := from.Unix(), to.Unix()
	var out mdt.Trajectory
	emit := func(recs []mdt.Record) {
		for _, r := range recs {
			if t := r.Time.Unix(); t >= fromS && t < toS {
				out = append(out, r)
			}
		}
	}
	for _, b := range p.blocks {
		if b.maxT < fromS || b.minT >= toS {
			continue
		}
		emit(b.recs)
	}
	if len(p.open) > 0 && p.lastT >= fromS && p.open[0].Time.Unix() < toS {
		emit(p.open)
	}
	return out
}

// FullTrajectory returns all of taxi id's records.
func (s *Store) FullTrajectory(id string) mdt.Trajectory {
	p := s.parts[id]
	if p == nil {
		return nil
	}
	out := make(mdt.Trajectory, 0, p.count)
	for _, b := range p.blocks {
		out = append(out, b.recs...)
	}
	out = append(out, p.open...)
	return out
}

// Scan streams every record with time in [from, to) in global time order
// (ties broken by taxi first-seen order) to fn; fn returning false stops
// the scan early.
func (s *Store) Scan(from, to time.Time, fn func(mdt.Record) bool) {
	// k-way merge over per-taxi cursors.
	var cursors []*scanCursor
	for ord, id := range s.order {
		tr := s.Trajectory(id, from, to)
		if len(tr) > 0 {
			cursors = append(cursors, &scanCursor{recs: tr, ord: ord})
		}
	}
	h := cursorHeap(cursors)
	h.init()
	for h.Len() > 0 {
		c := h.min()
		if !fn(c.recs[c.pos]) {
			return
		}
		c.pos++
		if c.pos >= len(c.recs) {
			h.popMin()
		} else {
			h.fix()
		}
	}
}

// scanCursor walks one taxi's windowed trajectory during a merge scan.
type scanCursor struct {
	recs mdt.Trajectory
	pos  int
	ord  int
}

// cursorHeap is a tiny binary heap keyed by (time, ord) of each cursor's
// current record.
type cursorHeap []*scanCursor

func (h cursorHeap) less(i, j int) bool {
	a, b := h[i].recs[h[i].pos], h[j].recs[h[j].pos]
	if !a.Time.Equal(b.Time) {
		return a.Time.Before(b.Time)
	}
	return h[i].ord < h[j].ord
}

func (h cursorHeap) Len() int { return len(h) }

func (h cursorHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h cursorHeap) min() *scanCursor { return h[0] }

func (h *cursorHeap) popMin() {
	old := *h
	n := len(old)
	old[0] = old[n-1]
	*h = old[:n-1]
	if len(*h) > 0 {
		h.down(0)
	}
}

func (h cursorHeap) fix() { h.down(0) }

func (h cursorHeap) down(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if r < n && h.less(r, small) {
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

// Save writes the store to w in the single-file format. Open blocks are
// sealed first. When w is the store's only on-disk copy, prefer SaveFile:
// writing in place can corrupt that copy if the process dies mid-write.
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
		p.seal()
		if err := writeString(bw, id); err != nil {
			return err
		}
		if err := writeUvarint(bw, uint64(len(p.blocks))); err != nil {
			return err
		}
		for _, b := range p.blocks {
			buf = buf[:0]
			for _, r := range b.recs {
				buf = r.AppendBinary(buf)
			}
			if err := writeUvarint(bw, uint64(len(b.recs))); err != nil {
				return err
			}
			if err := writeUvarint(bw, uint64(b.minT)); err != nil {
				return err
			}
			if err := writeUvarint(bw, uint64(b.maxT)); err != nil {
				return err
			}
			if err := writeUvarint(bw, uint64(len(buf))); err != nil {
				return err
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
// structural error.
func loadBody(br *bufio.Reader, s *Store) error {
	nParts, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("store: partition count: %w", err)
	}
	for pi := uint64(0); pi < nParts; pi++ {
		id, err := readString(br)
		if err != nil {
			return fmt.Errorf("store: partition %d name: %w", pi, err)
		}
		nBlocks, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("store: %s block count: %w", id, err)
		}
		p := &partition{taxiID: id}
		s.parts[id] = p
		s.order = append(s.order, id)
		for bi := uint64(0); bi < nBlocks; bi++ {
			nRecs, err := binary.ReadUvarint(br)
			if err != nil {
				return fmt.Errorf("store: %s block header: %w", id, err)
			}
			minT, err := binary.ReadUvarint(br)
			if err != nil {
				return fmt.Errorf("store: %s block header: %w", id, err)
			}
			maxT, err := binary.ReadUvarint(br)
			if err != nil {
				return fmt.Errorf("store: %s block header: %w", id, err)
			}
			size, err := binary.ReadUvarint(br)
			if err != nil {
				return fmt.Errorf("store: %s block header: %w", id, err)
			}
			payload := make([]byte, size)
			if _, err := io.ReadFull(br, payload); err != nil {
				return fmt.Errorf("store: %s torn block payload: %w", id, err)
			}
			b := block{minT: int64(minT), maxT: int64(maxT), recs: make([]mdt.Record, 0, nRecs)}
			for len(payload) > 0 {
				r, n, err := mdt.DecodeBinary(payload)
				if err != nil {
					return fmt.Errorf("store: corrupt block for %s: %w", id, err)
				}
				b.recs = append(b.recs, r)
				payload = payload[n:]
			}
			if uint64(len(b.recs)) != nRecs {
				return fmt.Errorf("store: %s block holds %d of %d records: %w",
					id, len(b.recs), nRecs, errBadFile)
			}
			if len(b.recs) > 0 {
				b.maxT = b.recs[len(b.recs)-1].Time.Unix()
				p.blocks = append(p.blocks, b)
				p.count += len(b.recs)
				s.count += len(b.recs)
				p.lastT = b.maxT
			}
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
	if n > 1<<20 {
		return "", errBadFile
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
