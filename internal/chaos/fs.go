package chaos

import (
	"os"
	"sync/atomic"

	"taxiqueue/internal/store"
)

// FS wraps base (store.OS when nil) with the plan's disk faults: short
// writes that report an error, silent short writes that report success (the
// torn tail a lying disk leaves after a crash), fsync errors and rename
// failures. Plug it into ingest.Config.FS or history.Config.FS to attack
// the store.Log write path.
func (f *Faults) FS(base store.FS) store.FS {
	if base == nil {
		base = store.OS
	}
	return &fsys{base: base, f: f}
}

type fsys struct {
	base store.FS
	f    *Faults
}

func (s *fsys) Create(name string) (store.File, error) {
	fl, err := s.base.Create(name)
	if err != nil {
		return nil, err
	}
	return &file{File: fl, f: s.f}, nil
}

func (s *fsys) CreateTemp(dir, pattern string) (store.File, error) {
	fl, err := s.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &file{File: fl, f: s.f}, nil
}

func (s *fsys) Rename(oldpath, newpath string) error {
	if s.f.hit("fs_rename_err", s.f.cfg.RenameErrProb) {
		return injected("rename failure")
	}
	return s.base.Rename(oldpath, newpath)
}

func (s *fsys) Remove(name string) error { return s.base.Remove(name) }

// file is one fault-injecting file. Once a silent torn fault fires, every
// later write (and sync) pretends to succeed while writing nothing — the
// file on disk stays a clean prefix, exactly the torn tail a crash after
// an unsynced write leaves behind. dead is atomic because the log's
// group-commit syncer calls Sync concurrently with the writer.
type file struct {
	store.File
	f    *Faults
	dead atomic.Bool
}

func (fl *file) Write(b []byte) (int, error) {
	if fl.dead.Load() {
		return len(b), nil
	}
	if fl.f.hit("fs_short_write", fl.f.cfg.ShortWriteProb) {
		n, _ := fl.File.Write(b[:fl.f.part(len(b))])
		return n, injected("short write")
	}
	if fl.f.hit("fs_silent_torn", fl.f.cfg.SilentTornProb) {
		fl.dead.Store(true)
		_, _ = fl.File.Write(b[:fl.f.part(len(b))])
		return len(b), nil
	}
	return fl.File.Write(b)
}

func (fl *file) Sync() error {
	if fl.dead.Load() {
		return nil
	}
	if fl.f.hit("fs_sync_err", fl.f.cfg.SyncErrProb) {
		return injected("fsync failure")
	}
	return fl.File.Sync()
}

// TearTail truncates the last n bytes of the file at path (clamped to the
// file size) — the deterministic way to plant a torn WAL tail for a
// recovery test.
func TearTail(path string, n int) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	size := st.Size() - int64(n)
	if size < 0 {
		size = 0
	}
	return os.Truncate(path, size)
}
