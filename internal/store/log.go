package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Log is the append-only, checksummed log (format TQLOG1) under both
// durable users: the ingest WAL (one mdt record per frame) and the history
// store (one encoded block per frame). Framing, recovery, fsync and the
// write-error policy exist only here.
//
// On-disk layout, one directory per log, files numbered in creation order
// (00000001.log, 00000002.log, ...):
//
//	magic   "TQLOG1\n\x00" (8 bytes)
//	header  one frame whose payload is the u64 LE index of the file's first
//	        frame followed by the caller's stamp
//	frames  u32 LE payload length | u32 LE CRC32C | payload
//
// A frame's CRC32C covers its length field and its payload, so neither a
// flipped bit nor a zero-filled tail can pass as a frame.
//
// Recovery reads the files in order. A later file's header supersedes every
// earlier frame at or past its index: those frames are ignored and not
// counted. A torn or bad-CRC tail in the newest file is what a crash
// mid-commit leaves, so it is truncated and reported in Recovery. Any other
// damage fails OpenLog with an error naming the file: a file stops being
// the newest only after it was committed, recovered clean, or abandoned and
// then superseded, so damage below that point is bit rot, not a crash. The
// newest file whose header is torn is a creation the crash interrupted:
// it is dropped and counted, and the file before it becomes the newest. A
// file whose header is unreadable is skipped when it is not the newest (an
// abandoned file whose header never reached the disk); if it held frames
// that no later file supersedes, the gap fails OpenLog.
//
// Files rotate by size: the write-out that finds the active file at
// SegmentBytes commits it before the next file is created. A failed write
// or fsync abandons the active file; the Log holds every frame that is not
// yet durable, and the next write-out starts a new file that continues
// from the durable count and rewrites them. A restart never appends to a
// file it did not create: its first write-out starts a new file.
var logMagic = [8]byte{'T', 'Q', 'L', 'O', 'G', '1', '\n', 0}

const (
	logSuffix   = ".log"
	frameHeader = 8 // u32 length + u32 CRC32C
)

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	errCorrupt = errors.New("store: corrupt log")
	// errSyncFailed is a commit that found the syncer's fsync failed after
	// its write-out; the next commit rewrites the frames into a new file.
	// It is returned wrapped with that fsync's error.
	errSyncFailed = errors.New("store: log sync failed; the next commit rewrites into a new file")
)

// LogConfig parameterizes a Log.
type LogConfig struct {
	// FS is the filesystem writes go through; OS when nil. Reads use the
	// real filesystem (fault injection targets the write path).
	FS FS
	// SegmentBytes rotates the active file once it reaches this size;
	// 4 MiB when 0.
	SegmentBytes int64
	// OnSync, when set, is called from the background syncer after each
	// pipelined fsync (CommitAsync) with its duration and outcome.
	OnSync func(took time.Duration, err error)
}

// Recovery reports what a tolerant OpenLog salvaged.
type Recovery struct {
	// Records is the number of frames recovered.
	Records int
	// Err is the damage recovery cut away, naming its file; nil for a
	// clean log.
	Err error
}

// Truncated reports whether the log was damaged and only a prefix loaded.
func (r Recovery) Truncated() bool { return r.Err != nil }

// Ref locates one frame's payload on disk. Refs come from the replay
// callback and never move: the Log never rewrites a durable frame.
type Ref struct {
	file int
	off  int64
	size uint32
	crc  uint32
}

// Log is a directory of numbered append-only files. Append, Commit,
// CommitAsync, Close and Abort are single-goroutine (the owner); the
// group-commit syncer shares state with them under syncMu. Read is safe
// from any goroutine, also after Close.
type Log struct {
	dir   string
	stamp []byte
	cfg   LogConfig

	buf      []byte // framed frames not yet durable, oldest first
	bufFrame int64  // index of the frame buf starts with
	written  int    // leading bytes of buf already in the active file
	total    int64  // frames appended
	size     int64  // bytes in the active file
	nextSeq  int
	files    int   // log files on disk
	bytes    int64 // bytes across log files on disk

	// The pipelined group commit: CommitAsync writes inline and hands the
	// fsync to a lazily started syncer goroutine, so the writer never
	// waits on disk latency. syncCond signals fsync completion.
	syncMu   sync.Mutex
	syncCond *sync.Cond
	active   File  // nil until the next write-out creates a file
	syncing  bool  // an fsync of active is in flight
	onDisk   int64 // frames fully written, the last of them to active
	durable  int64 // frames on stable storage
	failErr  error // the fsync failure that abandons active; nil while usable
	syncErr  error // async fsync failure, surfaced by the next CommitAsync
	syncReq  chan struct{}
	syncWG   sync.WaitGroup
}

func logName(seq int) string { return fmt.Sprintf("%08d%s", seq, logSuffix) }

// listLog returns the file numbers in dir, ascending. A regular file that
// is not a log file fails: the directory may hold data in another format,
// and it must never be mistaken for an empty log.
func listLog(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: log dir: %w", err)
	}
	var seqs []int
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		body, ok := strings.CutSuffix(e.Name(), logSuffix)
		seq, err := strconv.Atoi(body)
		if !ok || err != nil || seq < 1 || logName(seq) != e.Name() {
			return nil, fmt.Errorf("store: log dir %s holds %s, which is not a log file: %w", dir, e.Name(), errCorrupt)
		}
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	return seqs, nil
}

// LogFiles returns the paths of the log's files, oldest first.
func LogFiles(dir string) ([]string, error) {
	seqs, err := listLog(dir)
	out := make([]string, len(seqs))
	for i, seq := range seqs {
		out[i] = filepath.Join(dir, logName(seq))
	}
	return out, err
}

// frameCRC is the CRC32C of a frame's 4-byte length field and payload.
// Callers pass slices of buffers they already hold, so the hot path
// allocates nothing.
func frameCRC(length, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum(length, castagnoli), castagnoli, payload)
}

func appendFrame(buf, p []byte) []byte {
	at := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
	buf = append(append(buf, 0, 0, 0, 0), p...)
	binary.LittleEndian.PutUint32(buf[at+4:], frameCRC(buf[at:at+4], p))
	return buf
}

// logFile is one file's parsed header.
type logFile struct {
	seq   int
	start int64 // index of the file's first frame
	body  int64 // offset of the first frame
	size  int64
}

// OpenLog opens (creating if needed) the log in dir, replays every
// recovered frame through replay, and reports what was salvaged. stamp
// identifies what the frames mean to the caller; a file stamped
// differently fails the open. The payload passed to replay is valid only
// during the call, and an error from replay fails the open. The error
// return is for damage recovery may not repair (see Log) and for foreign
// files.
func OpenLog(dir string, stamp []byte, cfg LogConfig, replay func(Ref, []byte) error) (*Log, Recovery, error) {
	if cfg.FS == nil {
		cfg.FS = OS
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 4 << 20
	}
	var rec Recovery
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, rec, fmt.Errorf("store: log dir: %w", err)
	}
	seqs, err := listLog(dir)
	if err != nil {
		return nil, rec, err
	}
	l := &Log{dir: dir, stamp: append([]byte(nil), stamp...), cfg: cfg, nextSeq: 1}
	l.syncCond = sync.NewCond(&l.syncMu)
	var files []logFile
	skipped := "" // the first non-newest file with an unreadable header
	for i, seq := range seqs {
		f, damage, err := l.readHeader(seq)
		if err != nil {
			return nil, rec, err
		}
		l.nextSeq = seq + 1
		if damage != nil && i == len(seqs)-1 {
			// A torn creation: nothing in the file was ever committed.
			if err := cfg.FS.Remove(filepath.Join(dir, logName(seq))); err != nil {
				return nil, rec, fmt.Errorf("store: log drop %s: %w", logName(seq), err)
			}
			rec.Err = fmt.Errorf("%s: %w", logName(seq), damage)
			continue
		}
		l.files++
		l.bytes += f.size
		if damage == nil {
			files = append(files, f)
		} else if skipped == "" {
			skipped = fmt.Sprintf("%s (%v)", logName(seq), damage)
		}
	}
	// Each file is read up to the lowest start of any later file. The one
	// no later file bounds is the newest readable file: the tail a crash
	// may have torn.
	limits := make([]int64, len(files))
	limit := int64(math.MaxInt64)
	for i := len(files) - 1; i >= 0; i-- {
		limits[i] = limit
		limit = min(limit, files[i].start)
	}
	var n int64
	for i, f := range files {
		if limits[i] <= f.start {
			continue // wholly superseded
		}
		if f.start != n {
			if skipped != "" {
				return nil, rec, fmt.Errorf("store: log file %s damaged: %w", skipped, errCorrupt)
			}
			return nil, rec, fmt.Errorf("store: log %s continues from frame %d, but the files before it hold %d: %w",
				logName(f.seq), f.start, n, errCorrupt)
		}
		newest := limits[i] == math.MaxInt64
		got, clean, damage, err := l.readFrames(f, limits[i], replay)
		n += got
		rec.Records = int(n)
		if err != nil {
			return nil, rec, err
		}
		if damage != nil {
			if !newest {
				return nil, rec, fmt.Errorf("store: log %s damaged at frame %d: %v: %w",
					logName(f.seq), f.start+got, damage, errCorrupt)
			}
			if err := os.Truncate(filepath.Join(dir, logName(f.seq)), clean); err != nil {
				return nil, rec, fmt.Errorf("store: log truncate %s: %w", logName(f.seq), err)
			}
			rec.Err = fmt.Errorf("%s: %w", logName(f.seq), damage)
			l.bytes -= f.size - clean
		}
	}
	l.total, l.bufFrame, l.onDisk, l.durable = n, n, n, n
	return l, rec, nil
}

// readHeader parses one file's magic and header frame. damage reports a
// header that is torn or fails its CRC; err is for a foreign magic, a
// different stamp, or an unreadable file.
func (l *Log) readHeader(seq int) (f logFile, damage, err error) {
	name := logName(seq)
	data, err := os.Open(filepath.Join(l.dir, name))
	if err != nil {
		return f, nil, fmt.Errorf("store: log %s: %w", name, err)
	}
	defer data.Close()
	fi, err := data.Stat()
	if err != nil {
		return f, nil, fmt.Errorf("store: log %s: %w", name, err)
	}
	f.seq, f.size = seq, fi.Size()
	var fixed [len(logMagic) + frameHeader]byte
	got, _ := io.ReadFull(data, fixed[:])
	if got < len(logMagic) {
		return f, errors.New("torn file header"), nil
	}
	if [8]byte(fixed[:8]) != logMagic {
		return f, nil, fmt.Errorf("store: %s is not a log file: %w", filepath.Join(l.dir, name), errCorrupt)
	}
	plen := int64(binary.LittleEndian.Uint32(fixed[8:]))
	if got < len(fixed) || plen < 8 || int64(len(fixed))+plen > f.size {
		return f, errors.New("torn file header"), nil
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(data, payload); err != nil {
		return f, nil, fmt.Errorf("store: log %s: %w", name, err)
	}
	if frameCRC(fixed[8:12], payload) != binary.LittleEndian.Uint32(fixed[12:]) {
		return f, errors.New("file header fails its checksum"), nil
	}
	if !bytes.Equal(payload[8:], l.stamp) {
		return f, nil, fmt.Errorf("store: log %s was written under a different stamp (another configuration): %w", name, errCorrupt)
	}
	f.start = int64(binary.LittleEndian.Uint64(payload))
	f.body = int64(len(fixed)) + plen
	return f, nil, nil
}

// readFrames replays f's frames below index limit. damage reports a torn
// or bad-CRC frame, with clean the byte length of the valid prefix; a file
// that ends below a finite limit (a later file continues past it) is
// damage too.
func (l *Log) readFrames(f logFile, limit int64, replay func(Ref, []byte) error) (got, clean int64, damage, err error) {
	name := logName(f.seq)
	file, err := os.Open(filepath.Join(l.dir, name))
	if err != nil {
		return 0, 0, nil, fmt.Errorf("store: log %s: %w", name, err)
	}
	defer file.Close()
	if _, err := file.Seek(f.body, io.SeekStart); err != nil {
		return 0, 0, nil, fmt.Errorf("store: log %s: %w", name, err)
	}
	br := bufio.NewReaderSize(file, 64<<10)
	off := f.body
	var hdr [frameHeader]byte
	var pbuf []byte
	for ; f.start+got < limit; got++ {
		if off == f.size {
			if limit == math.MaxInt64 {
				return got, off, nil, nil
			}
			return got, off, errors.New("file ends before the next file continues"), nil
		}
		if f.size-off < frameHeader {
			return got, off, errors.New("torn frame header"), nil
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return got, off, nil, fmt.Errorf("store: log %s: %w", name, err)
		}
		plen := int64(binary.LittleEndian.Uint32(hdr[:]))
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if plen > f.size-off-frameHeader {
			return got, off, errors.New("frame runs past the end of the file"), nil
		}
		if int(plen) > cap(pbuf) {
			pbuf = make([]byte, plen)
		}
		payload := pbuf[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return got, off, nil, fmt.Errorf("store: log %s: %w", name, err)
		}
		if frameCRC(hdr[:4], payload) != crc {
			return got, off, errors.New("frame fails its checksum"), nil
		}
		if replay != nil {
			ref := Ref{file: f.seq, off: off + frameHeader, size: uint32(plen), crc: crc}
			if err := replay(ref, payload); err != nil {
				return got, off, nil, fmt.Errorf("store: log %s frame %d: %w", name, f.start+got, err)
			}
		}
		off += frameHeader + plen
	}
	return got, off, nil, nil
}

// Read fetches one frame's payload and re-checks its CRC.
func (l *Log) Read(ref Ref) ([]byte, error) {
	f, err := os.Open(filepath.Join(l.dir, logName(ref.file)))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, 4+ref.size) // length field, then the payload
	binary.LittleEndian.PutUint32(buf, ref.size)
	if _, err := f.ReadAt(buf[4:], ref.off); err != nil {
		return nil, err
	}
	if frameCRC(buf[:4], buf[4:]) != ref.crc {
		return nil, fmt.Errorf("store: log %s at %d: %w", logName(ref.file), ref.off, errCorrupt)
	}
	return buf[4:], nil
}

// Append buffers one frame. It becomes durable at the next commit.
func (l *Log) Append(p []byte) {
	l.buf = appendFrame(l.buf, p)
	l.total++
}

// Pending reports how many appended frames a crash right now would lose.
func (l *Log) Pending() int {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return int(l.total - l.durable)
}

// Files reports the log files on disk, abandoned ones included.
func (l *Log) Files() int { return l.files }

// Size reports the bytes across the log files on disk.
func (l *Log) Size() int64 { return l.bytes }

// trim drops the frames that became durable from the front of buf.
func (l *Log) trim() {
	l.syncMu.Lock()
	durable := l.durable
	l.syncMu.Unlock()
	off := 0
	for ; l.bufFrame < durable; l.bufFrame++ {
		off += frameHeader + int(binary.LittleEndian.Uint32(l.buf[off:]))
	}
	if off > 0 {
		l.buf = l.buf[:copy(l.buf, l.buf[off:])]
		l.written = max(l.written-off, 0)
	}
}

// writeOut writes every buffered frame to the active file. A full active
// file is committed and closed first, a failed one abandoned; either way
// the next file continues from the durable count.
func (l *Log) writeOut() error {
	if l.active != nil {
		l.syncMu.Lock()
		failed := l.failErr != nil
		l.syncMu.Unlock()
		if failed || l.size >= l.cfg.SegmentBytes {
			var err error
			if !failed {
				err = l.fsync(false)
			}
			l.closeActive()
			if err != nil {
				return err
			}
		}
	}
	l.trim()
	if l.written == len(l.buf) {
		return nil
	}
	if l.active == nil {
		if err := l.create(); err != nil {
			return err
		}
	}
	n, err := l.active.Write(l.buf[l.written:])
	l.size += int64(n)
	l.bytes += int64(n)
	if err != nil {
		l.closeActive()
		return fmt.Errorf("store: log write: %w", err)
	}
	l.written = len(l.buf)
	l.syncMu.Lock()
	l.onDisk = l.total
	l.syncMu.Unlock()
	return nil
}

// create starts the next file, continuing from the first frame not yet
// durable. A file whose header write fails is removed, so the retry reuses
// its number and no file with a torn header is ever left behind one that
// follows it.
func (l *Log) create() error {
	name := filepath.Join(l.dir, logName(l.nextSeq))
	f, err := l.cfg.FS.Create(name)
	if err != nil {
		return fmt.Errorf("store: log create: %w", err)
	}
	payload := append(binary.LittleEndian.AppendUint64(nil, uint64(l.bufFrame)), l.stamp...)
	hdr := appendFrame(append([]byte(nil), logMagic[:]...), payload)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		l.cfg.FS.Remove(name)
		return fmt.Errorf("store: log header: %w", err)
	}
	l.nextSeq++
	l.files++
	l.bytes += int64(len(hdr))
	l.size, l.written = int64(len(hdr)), 0
	l.syncMu.Lock()
	// None of buf is in the new file yet: a stale syncer wakeup that
	// fsyncs it before the write-out must not mark those frames durable.
	l.active, l.onDisk = f, l.bufFrame
	l.syncMu.Unlock()
	return nil
}

// closeActive releases the active file once no fsync is in flight on it.
// Frames written to it but not durable stay buffered for the next file.
func (l *Log) closeActive() {
	l.syncMu.Lock()
	for l.syncing {
		l.syncCond.Wait()
	}
	f := l.active
	l.active, l.failErr = nil, nil
	l.syncMu.Unlock()
	f.Close()
	l.written = 0
}

// fsync joins any fsync in flight, then fsyncs the active file so every
// frame written so far is durable; a failure marks the file failed. The
// syncer passes async, which reports the fsync to OnSync.
func (l *Log) fsync(async bool) error {
	l.syncMu.Lock()
	for l.syncing {
		l.syncCond.Wait()
	}
	f, n := l.active, l.onDisk
	if cause := l.failErr; cause != nil {
		l.syncMu.Unlock()
		return fmt.Errorf("%w: %w", errSyncFailed, cause)
	}
	if f == nil || n <= l.durable {
		l.syncMu.Unlock()
		return nil
	}
	l.syncing = true // excludes every other fsync until this one resolves
	l.syncMu.Unlock()
	t0 := time.Now()
	err := f.Sync()
	took := time.Since(t0)
	l.syncMu.Lock()
	l.syncing = false
	if err == nil {
		l.durable = n
	} else {
		l.failErr, l.syncErr = err, err
	}
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
	if async && l.cfg.OnSync != nil {
		l.cfg.OnSync(took, err)
	}
	if err != nil {
		return fmt.Errorf("store: log sync: %w", err)
	}
	return nil
}

// Commit makes every appended frame durable: one write plus one fsync
// covers all of them (group commit), after joining any fsync the syncer
// has in flight. On error the frames stay held; the next commit retries
// them in a new file.
func (l *Log) Commit() error {
	if err := l.writeOut(); err != nil {
		return err
	}
	err := l.fsync(false)
	if err == nil {
		l.syncMu.Lock()
		l.syncErr = nil
		l.syncMu.Unlock()
	}
	return err
}

// CommitAsync is the hot-path group commit: it writes the buffer inline
// (one write syscall per batch) and hands the fsync to the background
// syncer, so the caller never waits on disk latency. Frames count as
// Pending until the fsync completes. The returned error surfaces a write
// failure or an earlier async fsync failure; the frames involved stay held
// and are rewritten by the next commit of either kind.
func (l *Log) CommitAsync() error {
	if err := l.writeOut(); err != nil {
		return err
	}
	l.syncMu.Lock()
	err := l.syncErr
	l.syncErr = nil
	due := l.onDisk > l.durable
	l.syncMu.Unlock()
	if !due {
		return err
	}
	if l.syncReq == nil {
		l.syncReq = make(chan struct{}, 1)
		l.syncWG.Add(1)
		go l.syncer()
	}
	select {
	case l.syncReq <- struct{}{}:
	default: // a wakeup is already queued; its fsync will cover these bytes
	}
	return err
}

// syncer is the group-commit fsync goroutine: each wakeup makes every byte
// written so far durable. Wakeups coalesce, so one fsync can cover many
// CommitAsync calls.
func (l *Log) syncer() {
	defer l.syncWG.Done()
	for range l.syncReq {
		l.fsync(true)
	}
}

// stopSyncer shuts the background syncer down and waits for it.
func (l *Log) stopSyncer() {
	if l.syncReq != nil {
		close(l.syncReq)
		l.syncWG.Wait()
		l.syncReq = nil
	}
}

// Close commits every appended frame and releases the active file. The
// error is the commit's: frames it reports are not durable.
func (l *Log) Close() error {
	l.stopSyncer()
	err := l.Commit()
	if l.active != nil {
		if cerr := l.active.Close(); err == nil {
			err = cerr
		}
		l.active = nil
	}
	return err
}

// Abort releases the log without committing: the crash-test switch, which
// leaves the files exactly as the last write-out left them.
func (l *Log) Abort() {
	l.stopSyncer()
	if l.active != nil {
		l.active.Close()
		l.active = nil
	}
	l.buf, l.written = nil, 0
}
