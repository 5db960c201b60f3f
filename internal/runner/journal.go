package runner

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/fsatomic"
	"imagebench/internal/jsonl"
)

// The job journal makes the scheduler's work queue crash-safe: every
// submission and completion is appended, one JSON object per line, to a
// plain text file. After a crash or restart, replaying the journal
// yields the set of jobs that were accepted but never finished — those
// are resubmitted — while finished jobs need no replay at all, because
// the result cache (internal/results) already holds their tables on
// disk and a resubmission becomes an instant cache hit.
//
// The append/repair/read mechanics (single-write lines, torn-tail
// truncation on open, one tolerated bad trailing line) live in
// internal/jsonl, shared with the federation coordinator's assignment
// journal; this file owns the record schema and the replay semantics.
// Appends are not fsynced — a record survives a process crash, not a
// power loss — and need not be: a job whose done record is lost is
// re-run into the cache, which is the half that fsyncs (README
// "Durability").

// Op is the journal record type.
type Op string

const (
	// OpSubmit records a job accepted by the scheduler (including jobs
	// answered straight from the result cache).
	OpSubmit Op = "submit"
	// OpDone records a successful completion; the result is in the
	// cache by the time this is written.
	OpDone Op = "done"
	// OpFail records a terminal failure. Failed jobs are treated as
	// pending by replay: a failure may be transient (cancellation at
	// shutdown, resource pressure), and re-running a deterministic
	// simulation is always safe.
	OpFail Op = "fail"
)

// Record is one journal line.
type Record struct {
	Time       string        `json:"time"`
	Op         Op            `json:"op"`
	JobID      string        `json:"job"`
	Key        string        `json:"key"`
	Experiment string        `json:"experiment,omitempty"`
	Profile    *core.Profile `json:"profile,omitempty"` // submit records only
	CacheHit   bool          `json:"cacheHit,omitempty"`
	Error      string        `json:"error,omitempty"`
}

// Journal persists job lifecycle records. Implementations must be safe
// for concurrent use; the scheduler writes from every worker.
type Journal interface {
	Record(r Record) error
	Close() error
}

// FileJournal is the append-only JSONL Journal used by imagebenchd.
type FileJournal struct {
	f *jsonl.File
}

// OpenJournal opens (creating if needed) the journal at path for
// appending, repairing a torn trailing line left by a crash.
func OpenJournal(path string) (*FileJournal, error) {
	f, err := jsonl.Open(path)
	if err != nil {
		return nil, fmt.Errorf("runner: open journal: %w", err)
	}
	return &FileJournal{f: f}, nil
}

// Path returns the journal's file path.
func (j *FileJournal) Path() string { return j.f.Path() }

// Record appends one line via a single write (see jsonl.File.Append).
func (j *FileJournal) Record(r Record) error {
	if r.Time == "" {
		r.Time = time.Now().UTC().Format(time.RFC3339Nano)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("runner: encode journal record: %w", err)
	}
	return j.f.Append(b)
}

// Close closes the underlying file; further Records fail.
func (j *FileJournal) Close() error { return j.f.Close() }

// ReadJournal parses every record in the journal at path. A missing
// file is an empty journal. A final line that does not parse is the
// torn tail of a crash and is skipped; a malformed line anywhere else
// is corruption and is reported.
func ReadJournal(path string) ([]Record, error) {
	var recs []Record
	err := jsonl.Read(path, func(line []byte) bool {
		var r Record
		if err := json.Unmarshal(line, &r); err != nil || r.Op == "" {
			return false
		}
		recs = append(recs, r)
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("runner: read journal: %w", err)
	}
	return recs, nil
}

// PendingJob is a journaled submission that never reached OpDone.
type PendingJob struct {
	Key        string
	Experiment string
	Profile    core.Profile
}

// Pending replays records and returns the jobs to resubmit, in first-
// submission order, deduplicated by result key. A key is pending if its
// last record is a submit or a failure; OpDone retires it (the result
// cache has the table). A later submit of an already-done key does not
// reopen it unless that submit itself lacks a done.
func Pending(recs []Record) []PendingJob {
	type state struct {
		job  PendingJob
		done bool
		seq  int
	}
	byKey := make(map[string]*state)
	seq := 0
	for _, r := range recs {
		switch r.Op {
		case OpSubmit:
			if st, ok := byKey[r.Key]; ok {
				st.done = false
				continue
			}
			if r.Profile == nil || r.Experiment == "" {
				continue // unreplayable submit (old format); skip
			}
			seq++
			byKey[r.Key] = &state{
				job: PendingJob{Key: r.Key, Experiment: r.Experiment, Profile: *r.Profile},
				seq: seq,
			}
		case OpDone:
			if st, ok := byKey[r.Key]; ok {
				st.done = true
			}
		case OpFail:
			// Stays pending: failures are retried on recovery.
		}
	}
	out := make([]PendingJob, 0, len(byKey))
	for _, st := range byKey {
		if !st.done {
			out = append(out, st.job)
		}
	}
	// Deterministic order: first submission first.
	sort.Slice(out, func(i, j int) bool {
		return byKey[out[i].Key].seq < byKey[out[j].Key].seq
	})
	return out
}

// CompactJournal rewrites the journal at path so it contains only the
// first submit record of each still-pending key, atomically (temp +
// rename). Completed jobs need no history — their results live in the
// cache — so without compaction a long-lived daemon's journal grows
// with every job forever and each restart replays all of it. Call this
// before OpenJournal: compacting while a FileJournal holds the file
// open would strand its appends on the renamed-away inode. A missing
// journal is a no-op; a corrupt one is left untouched and reported.
func CompactJournal(path string) (kept int, err error) {
	recs, err := ReadJournal(path)
	if err != nil {
		return 0, err
	}
	if recs == nil {
		return 0, nil
	}
	pendingKeys := make(map[string]bool)
	for _, p := range Pending(recs) {
		pendingKeys[p.Key] = true
	}
	var buf []byte
	for _, r := range recs {
		if r.Op != OpSubmit || !pendingKeys[r.Key] {
			continue
		}
		delete(pendingKeys, r.Key) // keep only the first submit per key
		b, err := json.Marshal(r)
		if err != nil {
			return 0, fmt.Errorf("runner: compact %s: %w", path, err)
		}
		buf = append(buf, b...)
		buf = append(buf, '\n')
		kept++
	}
	if err := fsatomic.WriteFile(path, buf); err != nil {
		return 0, fmt.Errorf("runner: compact %s: %w", path, err)
	}
	return kept, nil
}

// Recover replays the journal at path and resubmits every pending job
// onto s, returning how many were resubmitted. Jobs whose results are
// already cached come back as instant cache hits, so calling Recover is
// idempotent and never re-runs completed work. Submission errors on
// individual jobs (an experiment deregistered between versions, a full
// queue) are skipped and reported in the error after all resubmissions
// are attempted.
func Recover(path string, s *Scheduler) (int, error) {
	recs, err := ReadJournal(path)
	if err != nil {
		return 0, err
	}
	var firstErr error
	n := 0
	for _, p := range Pending(recs) {
		if _, err := s.Submit(p.Experiment, p.Profile); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("runner: recover %s (key %.12s): %w", p.Experiment, p.Key, err)
			}
			continue
		}
		n++
	}
	return n, firstErr
}
