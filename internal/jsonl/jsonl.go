// Package jsonl is the append-only JSON-lines file primitive behind
// the repo's crash-safe logs: the result cache's disk tier
// (internal/results) uses File directly, and both journals, the
// scheduler's job journal (internal/runner) and the federation
// coordinator's assignment journal (internal/fed), are a Log of their
// own record type. It owns exactly the mechanics they share —
// single-write appends of complete lines, torn-tail repair on open, a
// durable group commit, and a reader that tolerates one unparseable
// final line — while each log keeps its own record schema and replay
// semantics.
//
// Crash-safety model: records are written as a single write(2) of
// complete lines to an O_APPEND descriptor, so concurrent writers never
// interleave mid-line and a crash can only tear the file's tail. Open
// truncates that tail and the reader tolerates it: an unparseable
// trailing line is ignored, anything torn earlier is reported as
// corruption. Append does not sync; Commit returns only after fsync
// (see "Durability" in the README).
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"imagebench/internal/fsatomic"
)

// file is what File needs of *os.File; tests substitute one whose
// writes fail.
type file interface {
	io.Writer
	io.ReaderAt
	io.Seeker
	io.Closer
	Truncate(size int64) error
	Sync() error
}

// File is an append-only line file. Its methods are safe for
// concurrent use.
type File struct {
	f    file
	path string

	mu     sync.Mutex // serializes writes; held through a group's fsync
	closed bool

	gmu     sync.Mutex // guards pending
	pending *group     // the group still accepting lines, nil when none
	syncs   atomic.Int64
}

// group is one Commit batch: the lines of every caller that arrived
// before its leader took the write lock.
type group struct {
	buf  []byte
	done chan struct{} // closed once base and err are set
	base int64         // file offset of buf[0]
	err  error
}

// Open opens (creating if needed) the file at path for appending. If
// the previous process crashed mid-write, the file ends in a torn
// partial line; that fragment is truncated away first — the record
// never durably existed, and appending after it would merge two
// records into one malformed mid-file line, turning a tolerated torn
// tail into corruption that poisons every later recovery. When Open
// creates the file it fsyncs the directory, so records Commit has
// acknowledged cannot vanish with the file's name.
func Open(path string) (*File, error) {
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jsonl: open %s: %w", path, err)
	}
	if os.IsNotExist(statErr) {
		err = fsatomic.SyncDir(filepath.Dir(path))
	} else {
		err = truncateTornTail(f)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("jsonl: open %s: %w", path, err)
	}
	return &File{f: f, path: path}, nil
}

// truncateTornTail drops everything after the file's last newline.
func truncateTornTail(f *os.File) error {
	end, err := f.Seek(0, 2)
	if err != nil {
		return err
	}
	if end == 0 {
		return nil
	}
	// Scan backwards in chunks for the last newline.
	const chunk = 4096
	pos := end
	for pos > 0 {
		n := int64(chunk)
		if pos < n {
			n = pos
		}
		buf := make([]byte, n)
		if _, err := f.ReadAt(buf, pos-n); err != nil {
			return err
		}
		for i := n - 1; i >= 0; i-- {
			if buf[i] == '\n' {
				return f.Truncate(pos - n + i + 1)
			}
		}
		pos -= n
	}
	return f.Truncate(0) // no newline at all: the whole file is one torn line
}

// Append writes line plus a trailing newline as one Write call, so a
// crash cannot interleave two records. It does not sync: a record
// survives a process crash, not necessarily a power loss. A failed or
// short write (disk full) is rolled back by truncating to the pre-write
// offset — otherwise the stranded fragment would sit mid-file and merge
// with the next successful append into one malformed line that poisons
// every later recovery.
func (f *File) Append(line []byte) error {
	b := make([]byte, 0, len(line)+1)
	b = append(b, line...)
	b = append(b, '\n')
	f.mu.Lock()
	defer f.mu.Unlock()
	_, err := f.writeLocked(b)
	return err
}

// writeLocked appends b, whole lines, as one Write and returns the
// offset it landed at; f.mu must be held, which makes the seek the
// write offset. A failed or short write is truncated away.
func (f *File) writeLocked(b []byte) (int64, error) {
	if f.closed {
		return 0, fmt.Errorf("jsonl: %s is closed", f.path)
	}
	end, err := f.f.Seek(0, 2)
	if err != nil {
		return 0, err
	}
	if _, err := f.f.Write(b); err != nil {
		f.f.Truncate(end)
		return 0, err
	}
	return end, nil
}

// Commit appends every line, each with a trailing newline, and returns
// once they are fsynced, with the file offset of each line. Callers
// that arrive while an earlier group's fsync is in flight are merged
// into one group: one Write, one fsync, shared by all of them. If the
// write or the fsync fails the file is rolled back to its length before
// the group and every caller of the group gets the error.
func (f *File) Commit(lines ...[]byte) ([]int64, error) {
	offs := make([]int64, len(lines))
	f.gmu.Lock()
	g := f.pending
	leader := g == nil
	if leader {
		g = &group{done: make(chan struct{})}
		f.pending = g
	}
	for i, line := range lines {
		offs[i] = int64(len(g.buf))
		g.buf = append(append(g.buf, line...), '\n')
	}
	f.gmu.Unlock()

	if leader {
		f.mu.Lock() // waits out the previous group's write and fsync
		f.gmu.Lock()
		f.pending = nil // later arrivals start the next group
		f.gmu.Unlock()
		g.base, g.err = f.writeLocked(g.buf)
		if g.err == nil {
			f.syncs.Add(1)
			if g.err = f.f.Sync(); g.err != nil {
				f.f.Truncate(g.base)
			}
		}
		f.mu.Unlock()
		close(g.done)
	} else {
		<-g.done
	}
	if g.err != nil {
		return nil, g.err
	}
	for i := range offs {
		offs[i] += g.base
	}
	return offs, nil
}

// Syncs returns the number of fsyncs Commit has issued, one a group.
func (f *File) Syncs() int64 { return f.syncs.Load() }

// ReadAt reads len(p) bytes at offset off (io.ReaderAt): the way back
// to a record whose offset Commit or Scan reported.
func (f *File) ReadAt(p []byte, off int64) (int, error) { return f.f.ReadAt(p, off) }

// Scan calls fn with every line of the file, in order, and the offset
// it starts at. The slice is only valid during the call.
func (f *File) Scan(fn func(off int64, line []byte)) error {
	f.mu.Lock()
	end, err := f.f.Seek(0, 2)
	f.mu.Unlock()
	if err != nil {
		return fmt.Errorf("jsonl: scan %s: %w", f.path, err)
	}
	if err := eachLine(io.NewSectionReader(f.f, 0, end), fn); err != nil {
		return fmt.Errorf("jsonl: scan %s: %w", f.path, err)
	}
	return nil
}

// eachLine calls fn with every line of r, newline stripped, and its
// offset; a final line without a newline is delivered too. Lines may be
// of any length.
func eachLine(r io.Reader, fn func(off int64, line []byte)) error {
	br := bufio.NewReaderSize(r, 64*1024)
	var off int64
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			fn(off, bytes.TrimSuffix(line, []byte("\n")))
			off += int64(len(line))
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// Close closes the underlying file; further Appends and Commits fail.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	return f.f.Close()
}

// Read parses the file at path line by line with parse, which reports
// whether the line decoded as a valid record. A missing file is empty.
// One failed line is tolerated only as the file's final line (the torn
// tail of a crash); a second bad line, or anything after a bad line,
// is corruption and is reported with its line number. Empty lines are
// skipped.
func Read(path string, parse func(line []byte) bool) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("jsonl: read %s: %w", path, err)
	}
	defer f.Close()

	lineNo, badLine := 0, 0
	var corrupt error
	err = eachLine(f, func(_ int64, line []byte) {
		lineNo++
		if len(line) == 0 || corrupt != nil {
			return
		}
		switch {
		case !parse(line):
			if badLine != 0 {
				corrupt = fmt.Errorf("jsonl: %s: malformed records at lines %d and %d", path, badLine, lineNo)
			}
			badLine = lineNo
		case badLine != 0:
			corrupt = fmt.Errorf("jsonl: %s: malformed record at line %d", path, badLine)
		}
	})
	if err != nil {
		return fmt.Errorf("jsonl: read %s: %w", path, err)
	}
	return corrupt
}

// Log is an append-only log of JSON records of type R: the journals'
// shared type (the scheduler's job journal, the coordinator's
// assignment journal). Each Record is one line appended without fsync
// (File.Append); stamping a record's time is its writer's business.
type Log[R any] struct{ f *File }

// OpenLog opens (creating if needed) the log at path for appending,
// repairing a torn trailing line left by a crash (see Open).
func OpenLog[R any](path string) (*Log[R], error) {
	f, err := Open(path)
	if err != nil {
		return nil, err
	}
	return &Log[R]{f: f}, nil
}

// Record appends r as one line via a single write.
func (l *Log[R]) Record(r R) error {
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("jsonl: encode %s: %w", l.f.path, err)
	}
	return l.f.Append(b)
}

// Close closes the underlying file; further Records fail.
func (l *Log[R]) Close() error { return l.f.Close() }

// ReadLog decodes every record of the log at path, in order, under
// Read's rules: a line is a record when it decodes as an R that valid
// accepts, and only the final line may fail to be one. It returns no
// records with an error.
func ReadLog[R any](path string, valid func(*R) bool) ([]R, error) {
	var recs []R
	err := Read(path, func(line []byte) bool {
		var r R
		if json.Unmarshal(line, &r) != nil || !valid(&r) {
			return false
		}
		recs = append(recs, r)
		return true
	})
	if err != nil {
		return nil, err
	}
	return recs, nil
}
