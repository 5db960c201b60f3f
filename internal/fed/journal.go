// Package fed is the federation layer: a coordinator that expands a
// sweep spec, partitions its cell grid across N imagebenchd workers
// over the existing HTTP API, steals work back from stragglers, and
// replicates every finished cell's table to every worker, in batches
// off the cell's critical path, so any of them can serve any key once
// Run returns. The coordinator keeps its own append-only
// JSONL assignment journal, a jsonl.Log like the scheduler's job
// journal and like it appended without fsync (README "Durability"): a
// restarted coordinator replays it and resubmits only cells that never
// reached "done". Exactly-once composes across the layers — a cell
// re-sent to a worker that already computed it is answered from the
// worker's content-addressed cache, never re-simulated.
package fed

import (
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
	// job failed). Failed cells are retried by a restarted coordinator:
	// only done retires a cell.
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
type Journal = jsonl.Log[Record]

// OpenJournal opens (creating if needed) the journal at path,
// repairing a torn trailing line left by a crash.
func OpenJournal(path string) (*Journal, error) { return jsonl.OpenLog[Record](path) }

// ReadJournal parses every record in the journal at path. A missing
// file is an empty journal; a torn final line is skipped.
func ReadJournal(path string) ([]Record, error) {
	return jsonl.ReadLog(path, func(r *Record) bool { return r.Op != "" })
}

// DoneKeys replays records and returns the set of cell keys that
// reached OpDone for the given sweep — the cells a restarted
// coordinator must NOT resubmit. Assignments and failures without a
// later done stay pending (failures are retried), so only done retires
// a key.
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
