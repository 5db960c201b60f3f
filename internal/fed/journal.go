// Package fed is the federation layer: a coordinator that expands a
// sweep spec, partitions its cell grid across N imagebenchd workers
// over the existing HTTP API, steals work back from stragglers, and
// replicates every finished cell's table to every worker, in batches
// off the cell's critical path, so any of them can serve any key once
// Run returns. The coordinator keeps its own append-only
// JSONL assignment journal (same crash-safety mechanics as the
// scheduler's job journal, via internal/jsonl, and like it appended
// without fsync — README "Durability"): a restarted
// coordinator replays it and resubmits only cells that never reached
// "done". Exactly-once composes across the layers — a cell re-sent to
// a worker that already computed it is answered from the worker's
// content-addressed cache, never re-simulated.
package fed

import (
	"encoding/json"
	"fmt"
	"time"

	"imagebench/internal/jsonl"
	"imagebench/internal/sweep"
)

// Op is the assignment-journal record type.
type Op string

const (
	// OpSpec opens a sweep: it records the sweep ID and the spec, so a
	// restarted coordinator can verify it is resuming the same grid.
	OpSpec Op = "spec"
	// OpAssign records a cell handed to a worker — the initial
	// partition, a post-failure reassignment, or the receiving side of
	// a steal.
	OpAssign Op = "assign"
	// OpSteal records an idle worker pulling a cell from a peer's
	// remaining queue; Worker is the thief, From the victim.
	OpSteal Op = "steal"
	// OpDone records a cell completed on a worker. Replay treats done
	// as terminal: the result is in the workers' caches.
	OpDone Op = "done"
	// OpFail records a cell-level failure (the worker answered, the
	// job failed). Failed cells are retried by a restarted coordinator,
	// mirroring the scheduler journal's failures-stay-pending policy.
	OpFail Op = "fail"
	// OpWorkerDown records a worker declared dead after a transport
	// failure; its remaining cells are reassigned.
	OpWorkerDown Op = "worker-down"
)

// Record is one assignment-journal line.
type Record struct {
	Time   string      `json:"time"`
	Op     Op          `json:"op"`
	Sweep  string      `json:"sweep,omitempty"`
	Spec   *sweep.Spec `json:"spec,omitempty"` // spec records only
	Key    string      `json:"key,omitempty"`
	Worker string      `json:"worker,omitempty"`
	From   string      `json:"from,omitempty"` // steal records only
	Error  string      `json:"error,omitempty"`
}

// Journal is the coordinator's append-only JSONL assignment journal.
type Journal struct {
	f *jsonl.File
}

// OpenJournal opens (creating if needed) the journal at path,
// repairing a torn trailing line left by a crash.
func OpenJournal(path string) (*Journal, error) {
	f, err := jsonl.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fed: open journal: %w", err)
	}
	return &Journal{f: f}, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.f.Path() }

// Record appends one line via a single write.
func (j *Journal) Record(r Record) error {
	if r.Time == "" {
		r.Time = time.Now().UTC().Format(time.RFC3339Nano)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("fed: encode journal record: %w", err)
	}
	return j.f.Append(b)
}

// Close closes the underlying file; further Records fail.
func (j *Journal) Close() error { return j.f.Close() }

// ReadJournal parses every record in the journal at path. A missing
// file is an empty journal; a torn final line is skipped.
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
		return nil, fmt.Errorf("fed: read journal: %w", err)
	}
	return recs, nil
}

// DoneKeys replays records and returns the set of cell keys that
// reached OpDone for the given sweep — the cells a restarted
// coordinator must NOT resubmit. Assignments and failures without a
// later done stay pending (failures are retried, like the scheduler
// journal), so only done retires a key.
func DoneKeys(recs []Record, sweepID string) map[string]bool {
	done := make(map[string]bool)
	current := ""
	for _, r := range recs {
		if r.Op == OpSpec {
			current = r.Sweep
			continue
		}
		if r.Op == OpDone && current == sweepID && r.Key != "" {
			done[r.Key] = true
		}
	}
	return done
}
