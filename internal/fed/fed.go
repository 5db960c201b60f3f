package fed

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/daemon"
	"imagebench/internal/obs"
	"imagebench/internal/results"
	"imagebench/internal/runner"
	"imagebench/internal/sweep"
)

// Config configures a Coordinator.
type Config struct {
	// Workers are the base URLs of the imagebenchd daemons to federate
	// over, e.g. "http://10.0.0.1:7080". At least one is required.
	Workers []string
	// PerWorker is the number of cells kept in flight on each worker
	// concurrently; 0 means 2. Higher values pipeline the per-cell HTTP
	// round trip but let more work strand on a killed worker.
	PerWorker int
	// JournalPath, when non-empty, is the coordinator's append-only
	// assignment journal. A restarted coordinator replays it and
	// resubmits only cells that never reached done.
	JournalPath string
	// Client is the HTTP client used for all worker traffic; nil means
	// a dedicated client with no overall timeout (per-cell waits are
	// bounded by the workers' own write timeouts).
	Client *http.Client
	// Metrics, when non-nil, receives the per-worker counters.
	Metrics *obs.FedMetrics
	// Logf, when non-nil, receives progress lines (worker deaths,
	// cell failures, resume decisions).
	Logf func(format string, args ...any)
}

// cellState tracks one cell through the federation: pending, running
// on a worker, and finally done (with its fetched entry) or failed. All
// fields are guarded by Coordinator.mu.
type cellState struct {
	cell     *sweep.Cell
	running  bool
	done     bool
	cacheHit bool // satisfied without execution (resume fetch)
	err      string
	// unsupported marks a failure the worker reported as "not
	// applicable under the cell's engine filter" (runner.Info.Unsupported):
	// terminal, but tallied apart from real failures, exactly as a
	// single-node sweep does.
	unsupported bool
	entry       *results.Entry
}

// Coordinator runs a sweep's cell grid on its workers from one FIFO of
// pending cells, which every worker slot pops when it is free, and
// journals each finished cell so a restart resubmits only the rest.
type Coordinator struct {
	cfg     Config
	client  *http.Client
	journal *Journal

	mu         sync.Mutex
	cond       *sync.Cond
	sweepID    string
	spec       sweep.Spec
	cells      []*sweep.Cell
	states     map[string]*cellState
	open       int          // cells not yet done or failed
	pending    []*cellState // cells no slot holds, FIFO
	dead       map[string]bool
	started    time.Time
	journalErr error // first journal append failure of this sweep, reported by Run

	// repl holds, per live peer, the fetched bodies of finished entries
	// that peer has not been sent yet; replDone tells the replicators no
	// more are coming.
	repl     map[string][][]byte
	replDone bool

	// resp writes the observation surface's responses with the worker
	// daemon's own writer, and counts the ones the coordinator failed to
	// write (client gone mid-response).
	resp daemon.Responder
}

// New validates cfg and opens the assignment journal (if configured).
// Call Close when done with the coordinator.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("fed: no workers configured")
	}
	seen := make(map[string]bool, len(cfg.Workers))
	for _, w := range cfg.Workers {
		if w == "" {
			return nil, fmt.Errorf("fed: empty worker URL")
		}
		if seen[w] {
			return nil, fmt.Errorf("fed: duplicate worker %s", w)
		}
		seen[w] = true
	}
	if cfg.PerWorker <= 0 {
		cfg.PerWorker = 2
	}
	c := &Coordinator{cfg: cfg, client: cfg.Client}
	if c.client == nil {
		c.client = &http.Client{}
	}
	c.cond = sync.NewCond(&c.mu)
	if cfg.JournalPath != "" {
		j, err := OpenJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		c.journal = j
	}
	return c, nil
}

// Close closes the assignment journal and the client's idle connections
// (one dialed but never used would otherwise hold a worker's graceful
// shutdown for five seconds). It does not interrupt a running Run;
// cancel its context for that.
func (c *Coordinator) Close() error {
	c.client.CloseIdleConnections()
	if c.journal != nil {
		return c.journal.Close()
	}
	return nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// record stamps r with the time and appends it to the assignment
// journal, remembering the first failure: the sweep keeps executing
// (availability over durability), and Run surfaces the degraded
// exactly-once guarantee at the end.
func (c *Coordinator) record(r Record) {
	if c.journal == nil {
		return
	}
	r.Time = time.Now().UTC().Format(time.RFC3339Nano)
	if err := c.journal.Record(r); err != nil && c.journalErr == nil {
		c.journalErr = err
	}
}

// Result is a completed federated sweep.
type Result struct {
	SweepID string
	Spec    sweep.Spec
	Cells   []*sweep.Cell
	// Entries holds every finished cell's fetched entry, by result key.
	Entries map[string]*results.Entry
	// Failed maps the keys of cells that terminally failed to their
	// errors. Empty on a fully successful sweep.
	Failed map[string]string
	// Unsupported maps the keys of cells whose experiment is not
	// applicable under the cell's engine filter to the worker's reason.
	// Expected when a systems axis crosses per-engine experiments; not a
	// failure of the sweep.
	Unsupported map[string]string
}

// WriteArtifact writes the canonical combined artifact: byte-identical
// to a single-node canonical run of the same grid.
func (r *Result) WriteArtifact(w io.Writer) error {
	return sweep.WriteCanonicalArtifact(w, r.SweepID, r.Spec, r.Cells, func(c *sweep.Cell) *core.Table {
		if e := r.Entries[c.Key]; e != nil {
			return e.Table
		}
		return nil
	})
}

// Run executes the sweep across the configured workers and blocks
// until every cell is terminal or ctx is canceled. The returned error
// covers coordinator-level problems (spec expansion, context
// cancellation, journal write failures); per-cell failures are
// reported in Result.Failed.
func (c *Coordinator) Run(ctx context.Context, spec sweep.Spec) (*Result, error) {
	cells, err := sweep.Expand(spec)
	if err != nil {
		return nil, err
	}
	sid := sweep.GridID(cells)

	// Resume: cells the journal already proved done are not re-run if
	// any worker still serves their table.
	var doneBefore map[string]bool
	if c.cfg.JournalPath != "" {
		recs, err := ReadJournal(c.cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		doneBefore = DoneKeys(recs, sid)
	}

	c.mu.Lock()
	c.sweepID, c.spec, c.cells = sid, spec, cells
	c.started = time.Now()
	c.states = make(map[string]*cellState, len(cells))
	c.dead = make(map[string]bool)
	c.repl, c.replDone = make(map[string][][]byte, len(c.cfg.Workers)), false
	c.journalErr = nil
	for _, cell := range cells {
		c.states[cell.Key] = &cellState{cell: cell}
	}
	c.mu.Unlock()

	// Unlocked, like the resume loop's reads of c.states below: no
	// executor goroutine exists yet, and c.states is never written again.
	c.record(Record{Op: OpSpec, Sweep: sid, Spec: &spec})

	// Opportunistic resume fetch, outside the lock: journal-done cells
	// whose table any worker still serves are finished without
	// re-execution. A table no worker can produce anymore falls back to
	// a normal run — the journal optimizes, the cache decides. The
	// other cells wait in expansion order; a free slot on any worker
	// takes the oldest, so a slow worker simply takes fewer.
	var pending []*cellState
	for _, cell := range cells {
		st := c.states[cell.Key]
		var entry *results.Entry
		if doneBefore[cell.Key] {
			entry = c.probeEntry(ctx, cell.Key)
		}
		if entry == nil {
			pending = append(pending, st)
			continue
		}
		c.mu.Lock()
		st.done, st.cacheHit, st.entry = true, true, entry
		c.mu.Unlock()
	}
	if resumed := len(cells) - len(pending); resumed > 0 {
		c.logf("fed: resumed %d of %d cells from the journal", resumed, len(cells))
	}
	c.mu.Lock()
	c.pending, c.open = pending, len(pending)
	c.mu.Unlock()

	// Wake blocked executors and replicators if the context dies.
	stopWake := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stopWake()

	var wg, replWG sync.WaitGroup
	for _, w := range c.cfg.Workers {
		replWG.Add(1)
		go func(peer string) {
			defer replWG.Done()
			c.replicator(ctx, peer)
		}(w)
		for s := 0; s < c.cfg.PerWorker; s++ {
			wg.Add(1)
			go func(worker string) {
				defer wg.Done()
				for {
					st := c.next(ctx, worker)
					if st == nil {
						return
					}
					c.execute(ctx, worker, st)
				}
			}(w)
		}
	}
	wg.Wait()
	// Every cell is terminal; what remains is replication already queued.
	c.mu.Lock()
	c.replDone = true
	c.mu.Unlock()
	c.cond.Broadcast()
	replWG.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &Result{SweepID: sid, Spec: spec, Cells: cells,
		Entries: make(map[string]*results.Entry), Failed: make(map[string]string), Unsupported: make(map[string]string)}
	c.mu.Lock()
	for key, st := range c.states {
		switch {
		case st.done:
			res.Entries[key] = st.entry
		case st.unsupported:
			res.Unsupported[key] = st.err
		default:
			res.Failed[key] = st.err
		}
	}
	jerr := c.journalErr
	c.mu.Unlock()
	if jerr != nil {
		return res, fmt.Errorf("fed: sweep completed but journal writes failed (restart will re-run cells): %w", jerr)
	}
	return res, nil
}

// next pops the head of the pending FIFO for one of worker's slots. When
// none is pending but cells are still in flight it blocks, since an
// in-flight cell goes back on the queue if its worker dies. It returns
// nil when the slot should exit: worker dead, canceled, or every cell
// terminal.
func (c *Coordinator) next(ctx context.Context, worker string) *cellState {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if ctx.Err() != nil || c.dead[worker] || c.open == 0 {
			return nil
		}
		if len(c.pending) > 0 {
			st := c.pending[0]
			c.pending = c.pending[1:]
			st.running = true
			if c.cfg.Metrics != nil {
				c.cfg.Metrics.Assigned.With(worker).Inc()
			}
			return st
		}
		c.cond.Wait()
	}
}

// execute runs one cell on worker: submit with wait=true, fetch the
// finished table, journal done, and queue the entry for replication to
// every other live worker. A transport failure declares the worker down
// and puts the cell back on the queue.
func (c *Coordinator) execute(ctx context.Context, worker string, st *cellState) {
	cell := st.cell
	info, err := c.submitCell(ctx, worker, cell)
	if err != nil {
		if isTransport(err) {
			c.workerDown(worker, st)
		} else {
			c.failCell(worker, st, err.Error(), false)
		}
		return
	}
	if info.Status != runner.StatusDone {
		c.failCell(worker, st, fmt.Sprintf("job %s: %s", info.Status, info.Error), info.Unsupported)
		return
	}
	if info.ResultKey != cell.Key {
		// The worker derived a different key for the same (experiment,
		// profile): registry or key-scheme drift. Its table would be
		// filed under the wrong address — fail loudly instead.
		c.failCell(worker, st, fmt.Sprintf("worker computed key %.12s, coordinator expected %.12s", info.ResultKey, cell.Key), false)
		return
	}
	entry, body, err := c.fetchEntry(ctx, worker, cell.Key)
	if err != nil {
		if isTransport(err) {
			c.workerDown(worker, st)
		} else {
			c.failCell(worker, st, err.Error(), false)
		}
		return
	}
	if entry == nil {
		c.failCell(worker, st, "worker reported done but serves no result", false)
		return
	}

	c.mu.Lock()
	st.running, st.done, st.entry = false, true, entry
	c.open--
	c.record(Record{Op: OpDone, Key: cell.Key, Worker: worker})
	if c.cfg.Metrics != nil {
		c.cfg.Metrics.Done.With(worker).Inc()
	}
	// Replicate so any worker can serve any key: the source already has
	// it, every other live worker's replicator is handed the body.
	for _, peer := range c.liveWorkersLocked() {
		if peer != worker {
			c.repl[peer] = append(c.repl[peer], body)
		}
	}
	c.mu.Unlock()
	// Broadcast after unlock is safe here and below: the state changed
	// under the lock, so a waiter either saw it or is already parked.
	c.cond.Broadcast()
}

// replicator pushes peer's queued entries, everything that has queued
// since its last request in one POST /v1/results (bounded by the
// worker's ingest cap), until Run has no more and the queue is empty,
// ctx is done, or the peer is down. A transport failure declares the
// peer down; a peer that answers with an error keeps running, it just
// missed those entries — reads fall back to whichever worker computed
// them.
func (c *Coordinator) replicator(ctx context.Context, peer string) {
	for {
		c.mu.Lock()
		for len(c.repl[peer]) == 0 && !c.replDone && !c.dead[peer] && ctx.Err() == nil {
			c.cond.Wait()
		}
		q := c.repl[peer]
		if len(q) == 0 || c.dead[peer] || ctx.Err() != nil {
			delete(c.repl, peer)
			c.mu.Unlock()
			return
		}
		n, size := 1, len(q[0]) // an oversized entry still goes, alone
		for n < len(q) && size+len(q[n]) <= daemon.MaxIngestBytes {
			size += len(q[n])
			n++
		}
		c.repl[peer] = q[n:]
		c.mu.Unlock()

		status, _, err := c.post(ctx, peer+"/v1/results", bytes.Join(q[:n], nil))
		switch {
		case err != nil:
			c.workerDown(peer, nil)
		case status != http.StatusCreated:
			c.logf("fed: replicate %d entries to %s: status %d", n, peer, status)
		case c.cfg.Metrics != nil:
			c.cfg.Metrics.Replications.With(peer).Add(float64(n))
		}
	}
}

// failCell marks a cell terminally failed; unsupported carries the
// worker's "not applicable" classification through to SweepInfo.
func (c *Coordinator) failCell(worker string, st *cellState, msg string, unsupported bool) {
	c.mu.Lock()
	st.running = false
	st.err, st.unsupported = msg, unsupported
	c.open--
	c.mu.Unlock()
	c.cond.Broadcast()
	c.logf("fed: cell %s/%s failed on %s: %s", st.cell.Experiment, st.cell.Profile.Name, worker, msg)
}

// workerDown declares a worker dead after a transport failure and puts
// the in-flight cell that exposed it, if any, back on the queue; the
// worker's other in-flight cells come back the same way as their
// requests fail. With no live worker left, every pending cell fails.
func (c *Coordinator) workerDown(worker string, inflight *cellState) {
	c.mu.Lock()
	if !c.dead[worker] {
		c.dead[worker] = true
		if c.cfg.Metrics != nil {
			c.cfg.Metrics.WorkerFailures.With(worker).Inc()
		}
		c.logf("fed: worker %s down", worker)
	}
	if inflight != nil {
		inflight.running = false
		c.pending = append(c.pending, inflight)
	}
	if len(c.liveWorkersLocked()) == 0 {
		for _, st := range c.pending {
			st.err = "no live workers"
			c.open--
		}
		c.pending = nil
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}

// liveWorkersLocked returns the workers not declared dead, in config
// order; c.mu must be held.
func (c *Coordinator) liveWorkersLocked() []string {
	var live []string
	for _, w := range c.cfg.Workers {
		if !c.dead[w] {
			live = append(live, w)
		}
	}
	return live
}
