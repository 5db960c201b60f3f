// Package fsatomic is the one place the repo writes files atomically:
// the data lands in a temp file in the target's directory and is
// renamed into place, so readers (and a crash at any instant) see
// either the old content or the new, never a torn write. Its users are
// the whole-file writers: the sweep-spec store, the sweep artifacts and
// journal compaction. (The result cache appends to a log instead; see
// "Durability" in the README.)
package fsatomic

import (
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with data. The temp file is
// created in path's directory so the final rename never crosses a
// filesystem boundary.
func WriteFile(path string, data []byte) error {
	f, err := Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Abort()
		return err
	}
	return f.Commit()
}

// File is an incrementally written atomic file: data accumulates in a
// temp file in the target's directory, and Commit flushes and renames
// it into place in one step. Until Commit returns, readers of the
// target path see the previous content (or absence) untouched — which
// is what lets a producer append output as it is computed (the
// streaming sweep artifact) while keeping WriteFile's all-or-nothing
// guarantee.
type File struct {
	tmp  *os.File
	path string
	done bool
}

// Name returns the target path the pending content will replace.
func (f *File) Name() string { return f.path }

// Create opens an incremental atomic write targeting path. The caller
// must finish with exactly one of Commit or Abort.
func Create(path string) (*File, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, err
	}
	return &File{tmp: tmp, path: path}, nil
}

// Write appends to the pending content (io.Writer).
func (f *File) Write(p []byte) (int, error) { return f.tmp.Write(p) }

// Commit flushes the pending content, atomically renames it over the
// target path, and syncs the directory, so once Commit returns a power
// loss can lose neither the content nor the name it is under.
func (f *File) Commit() error {
	if f.done {
		return nil
	}
	f.done = true
	if err := f.tmp.Chmod(0o644); err != nil {
		f.tmp.Close()
		os.Remove(f.tmp.Name())
		return err
	}
	// Flush data before the rename is journaled, or a power loss could
	// leave the destination as an empty file — exactly the torn state
	// the rename is supposed to rule out.
	if err := f.tmp.Sync(); err != nil {
		f.tmp.Close()
		os.Remove(f.tmp.Name())
		return err
	}
	if err := f.tmp.Close(); err != nil {
		os.Remove(f.tmp.Name())
		return err
	}
	if err := os.Rename(f.tmp.Name(), f.path); err != nil {
		os.Remove(f.tmp.Name())
		return err
	}
	return SyncDir(filepath.Dir(f.path))
}

// SyncDir fsyncs the directory dir, making the names created or
// renamed in it durable: a file's own fsync covers its content, not
// the directory entry that points at it.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Abort discards the pending content, leaving the target untouched.
// Safe to call after Commit (no-op), so it can run in a defer.
func (f *File) Abort() {
	if f.done {
		return
	}
	f.done = true
	f.tmp.Close()
	os.Remove(f.tmp.Name())
}
