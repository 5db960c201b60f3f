package runner

import (
	"bytes"
	"encoding/json"
	"fmt"

	"imagebench/internal/core"
	"imagebench/internal/fsatomic"
	"imagebench/internal/jsonl"
	"imagebench/internal/results"
)

// The job journal makes the scheduler's work queue crash-safe: every
// submission that has to run is appended, one JSON object per line, to
// a plain text file before the job becomes runnable. Completion is not
// journaled: the result cache (internal/results) is its one record.
// After a crash or restart, replaying the journal resubmits each
// journaled job whose result key the cache cannot serve; a job that
// finished is filed in the cache under that key, so replay skips it.
//
// The journal is a jsonl.Log: single-write lines, torn-tail truncation
// on open, one tolerated bad trailing line. This file owns the record
// schema and the replay. Appends are not fsynced: a record survives a
// process crash, not a power loss, while the cache fsyncs every result
// it acknowledges (README "Durability").

// Op is the journal record type.
type Op string

// OpSubmit records a job the scheduler accepted and has to run (not one
// answered from the result cache). It is the only op the scheduler
// writes; replay ignores the "done" and "fail" records of older
// journals, since the cache decides completion.
const OpSubmit Op = "submit"

// Record is one journal line.
type Record struct {
	Time       string        `json:"time"`
	Op         Op            `json:"op"`
	JobID      string        `json:"job"`
	Key        string        `json:"key"`
	Experiment string        `json:"experiment,omitempty"`
	Profile    *core.Profile `json:"profile,omitempty"`
}

// FileJournal is the append-only JSONL job journal used by imagebenchd.
type FileJournal = jsonl.Log[Record]

// OpenJournal opens (creating if needed) the journal at path for
// appending, repairing a torn trailing line left by a crash.
func OpenJournal(path string) (*FileJournal, error) { return jsonl.OpenLog[Record](path) }

// ReadJournal parses every record in the journal at path. A missing
// file is an empty journal. A final line that does not parse is the
// torn tail of a crash and is skipped; a malformed line anywhere else
// is corruption and is reported.
func ReadJournal(path string) ([]Record, error) {
	return jsonl.ReadLog(path, func(r *Record) bool { return r.Op != "" })
}

// unfinished returns the first replayable submit of each journaled key
// that cache cannot Peek (all of them when cache is nil), in journal
// order.
func unfinished(recs []Record, cache *results.Cache) []Record {
	var out []Record
	seen := make(map[string]bool)
	for _, r := range recs {
		if r.Op != OpSubmit || r.Profile == nil || r.Experiment == "" || seen[r.Key] {
			continue
		}
		seen[r.Key] = true
		if cache != nil {
			if _, ok := cache.Peek(r.Key); ok {
				continue
			}
		}
		out = append(out, r)
	}
	return out
}

// CompactJournal rewrites the journal at path so it contains only the
// first submit of each key cache cannot serve, atomically (temp +
// rename). Finished jobs need no history — their results live in the
// cache — so without compaction a long-lived daemon's journal grows
// with every job forever and each restart replays all of it. Call this
// before OpenJournal: compacting while a FileJournal holds the file
// open would strand its appends on the renamed-away inode. A missing
// journal is a no-op; a corrupt one is left untouched and reported.
func CompactJournal(path string, cache *results.Cache) (kept int, err error) {
	recs, err := ReadJournal(path)
	if err != nil || recs == nil {
		return 0, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	keep := unfinished(recs, cache)
	for _, r := range keep {
		if err := enc.Encode(r); err != nil {
			return 0, fmt.Errorf("runner: compact %s: %w", path, err)
		}
	}
	if err := fsatomic.WriteFile(path, buf.Bytes()); err != nil {
		return 0, fmt.Errorf("runner: compact %s: %w", path, err)
	}
	return len(keep), nil
}

// Recover replays the journal at path and resubmits onto s every
// journaled job whose result s's cache cannot serve, returning how many
// were resubmitted. A resubmitted job that finished in the meantime is
// an instant cache hit, so calling Recover is idempotent and never
// re-runs completed work. Submission errors on individual jobs (an
// experiment deregistered between versions, a full queue) are skipped
// and reported in the error after all resubmissions are attempted.
func Recover(path string, s *Scheduler) (int, error) {
	recs, err := ReadJournal(path)
	if err != nil {
		return 0, err
	}
	var firstErr error
	n := 0
	for _, r := range unfinished(recs, s.opts.Cache) {
		if _, err := s.Submit(r.Experiment, *r.Profile); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("runner: recover %s (key %.12s): %w", r.Experiment, r.Key, err)
			}
			continue
		}
		n++
	}
	return n, firstErr
}
