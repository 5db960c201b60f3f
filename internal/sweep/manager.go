package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"imagebench/internal/fsatomic"
	"imagebench/internal/obs"
	"imagebench/internal/results"
	"imagebench/internal/runner"
)

// Manager owns the live sweeps of one process and, when given a
// directory, persists each sweep's spec so a restarted daemon can
// re-adopt it: completed cells rehydrate from the result cache (no
// re-execution), unfinished cells resubmit through the scheduler.
//
// maxSweeps bounds the retained index: once exceeded, the oldest
// fully-finished sweeps are evicted. Their specs stay on disk (a
// re-POST of the same grid re-adopts them via the cache) and their
// cells' tables stay in the result cache; what eviction releases is
// the in-memory Sweep whose job pointers pin every cell's table.
type Manager struct {
	sched *runner.Scheduler
	cache *results.Cache // may be nil (no rehydration, every cell re-runs)
	dir   string         // "" = memory only

	now func() time.Time // injected wall clock (timestamps are metadata, not identity)

	mu          sync.Mutex
	sweeps      map[string]*Sweep
	order       []*Sweep
	unpersisted map[string]bool // sweeps whose spec write failed; retried on resubmit
}

// NewManager returns a manager submitting through sched and consulting
// cache; dir, when non-empty, is created and used to persist sweep
// specs (one JSON file per sweep). now supplies creation timestamps
// (callers outside this package pass time.Now): sweep identity is
// content-addressed, so the clock is injected metadata and this
// package itself never reads wall time. A nil now stamps the zero
// time.
func NewManager(sched *runner.Scheduler, cache *results.Cache, dir string, now func() time.Time) (*Manager, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("sweep: create %s: %w", dir, err)
		}
	}
	if now == nil {
		now = func() time.Time { return time.Time{} }
	}
	return &Manager{
		sched: sched, cache: cache, dir: dir, now: now,
		sweeps:      make(map[string]*Sweep),
		unpersisted: make(map[string]bool),
	}, nil
}

// persisted is the on-disk form of a sweep: the spec plus identity.
// Cell status is deliberately not persisted — it is derivable from the
// scheduler's journal and the result cache, which are the durable
// sources of truth.
type persisted struct {
	ID      string    `json:"id"`
	Created time.Time `json:"created"`
	Spec    Spec      `json:"spec"`
}

// Submit expands the spec, registers the sweep, and schedules every
// cell. Submitting a spec that denotes an already-known grid returns
// the existing sweep (existing=true) without re-submitting anything:
// the sweep ID is a content address, so POST /v1/sweeps is idempotent.
//
// If the sweep runs but its spec cannot be persisted (disk full), both
// the sweep AND an error are returned: the grid is executing and
// queryable, it just will not survive a restart. Callers must check
// err before assuming durability, and s before assuming failure.
func (m *Manager) Submit(spec Spec) (s *Sweep, existing bool, err error) {
	cells, err := Expand(spec)
	if err != nil {
		return nil, false, err
	}
	sid := id(cells)

	m.mu.Lock()
	if s, ok := m.sweeps[sid]; ok {
		m.mu.Unlock()
		return s, true, m.ensurePersisted(s)
	}
	// Unlocked before registering: an identical Submit can get here
	// too; the re-check under the lock below keeps exactly one sweep.
	m.mu.Unlock()

	// The sweep root span parents every cell's job span; it ends (in a
	// watcher goroutine) when the last cell terminates.
	sctx, root := obs.StartSpan(m.sched.ObsContext(), "sweep")
	root.SetAttr("sweep", sid)
	root.SetAttr("cells", fmt.Sprintf("%d", len(cells)))

	// Submit outside the lock: Submit can block briefly and other
	// sweeps' status reads should not stall behind it. A concurrent
	// identical Submit is resolved below; its duplicate jobs are
	// deduplicated by the scheduler anyway.
	for i, c := range cells {
		j, err := m.sched.SubmitWithContext(sctx, c.Experiment, c.Profile)
		if err != nil {
			root.SetAttr("error", err.Error())
			root.End()
			// Not transactional: the first i cells are already running.
			// That work is not lost — they land in the cache, and a
			// retry of the same spec joins them in flight — but until
			// then they are visible only under /v1/jobs.
			return nil, false, fmt.Errorf(
				"sweep: submit cell %s/%s (%d of %d cells already scheduled; retrying the same spec adopts them): %w",
				c.Experiment, c.Profile.Name, i, len(cells), err)
		}
		c.job = j
	}
	s = newSweep(sid, spec, cells, m.now())

	watchSweep(root, s)

	m.mu.Lock()
	if prior, ok := m.sweeps[sid]; ok {
		m.mu.Unlock()
		return prior, true, m.ensurePersisted(prior)
	}
	m.sweeps[sid] = s
	m.order = append(m.order, s)
	// Marked unpersisted in the same critical section that registers
	// the sweep: a concurrent identical Submit that finds it via the
	// early return must not report durable success before the spec file
	// actually exists.
	if m.dir != "" {
		m.unpersisted[sid] = true
	}
	m.evictLocked()
	m.mu.Unlock()

	// Unlocked write: a concurrent ensurePersisted may write the same
	// file; both write the same bytes through an atomic rename, and the
	// flag only clears after a write that succeeded.
	if err := m.persist(s); err != nil {
		return s, false, fmt.Errorf("sweep %s is running but not persisted: %w", s.ID, err)
	}
	m.mu.Lock()
	delete(m.unpersisted, sid)
	m.mu.Unlock()
	return s, false, nil
}

// ensurePersisted retries a previously-failed spec write, so a client
// retrying POST /v1/sweeps after freeing disk space actually restores
// restart durability instead of getting a hollow 200.
func (m *Manager) ensurePersisted(s *Sweep) error {
	m.mu.Lock()
	pending := m.unpersisted[s.ID]
	m.mu.Unlock()
	if !pending {
		return nil
	}
	if err := m.persist(s); err != nil {
		return fmt.Errorf("sweep %s is running but not persisted: %w", s.ID, err)
	}
	m.mu.Lock()
	delete(m.unpersisted, s.ID)
	m.mu.Unlock()
	return nil
}

// persist writes the sweep's spec file atomically (temp + rename).
func (m *Manager) persist(s *Sweep) error {
	if m.dir == "" {
		return nil
	}
	b, err := json.MarshalIndent(persisted{ID: s.ID, Created: s.created, Spec: s.Spec}, "", "  ")
	if err != nil {
		return fmt.Errorf("sweep: encode %s: %w", s.ID, err)
	}
	return fsatomic.WriteFile(filepath.Join(m.dir, s.ID+".json"), b)
}

// Recover re-adopts every persisted sweep: cells whose results are in
// the cache are marked rehydrated (status done, nothing scheduled);
// the rest are resubmitted. It returns the number of sweeps adopted.
// Files that no longer expand (an experiment deregistered, a corrupt
// spec) are skipped and reported in the combined error after all
// recoverable sweeps are adopted.
func (m *Manager) Recover() (int, error) {
	if m.dir == "" {
		return 0, nil
	}
	names, err := os.ReadDir(m.dir)
	if err != nil {
		return 0, fmt.Errorf("sweep: scan %s: %w", m.dir, err)
	}
	var errs []string
	adopted := 0
	for _, f := range names {
		if f.IsDir() || !strings.HasSuffix(f.Name(), ".json") {
			continue
		}
		path := filepath.Join(m.dir, f.Name())
		ok, err := m.recoverOne(path)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		if ok {
			adopted++
		}
	}
	if len(errs) > 0 {
		return adopted, fmt.Errorf("sweep: recover: %s", strings.Join(errs, "; "))
	}
	return adopted, nil
}

// recoverOne adopts one persisted sweep file; the boolean reports
// whether a new sweep was adopted (false when it is already known).
func (m *Manager) recoverOne(path string) (bool, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return false, fmt.Errorf("%s: %v", path, err)
	}
	var p persisted
	if err := json.Unmarshal(b, &p); err != nil {
		return false, fmt.Errorf("%s: %v", path, err)
	}
	cells, err := Expand(p.Spec)
	if err != nil {
		return false, fmt.Errorf("%s: %v", path, err)
	}
	if got := id(cells); got != p.ID {
		// The registry or key scheme changed under the persisted spec;
		// adopting it under the old ID would serve a different grid.
		return false, fmt.Errorf("%s: grid now expands to %s, persisted as %s", path, got, p.ID)
	}

	m.mu.Lock()
	_, known := m.sweeps[p.ID]
	m.mu.Unlock()
	if known {
		return false, nil
	}
	// Unlocked from here: a Submit of the same grid may register it
	// first; the dup re-check below then drops this copy, whose jobs the
	// scheduler has already deduplicated against the registered one's.

	// Rehydration scan: cells whose results are already cached need no
	// job. Peek, not a membership test against Keys: the filename index
	// lists a corrupt entry until something tries to read it, which
	// would mark the cell done with no table behind it. Peek validates
	// the entry actually loads (and skips the hit/miss counters); a
	// corrupt file falls through to a resubmit, matching the cache's
	// corrupt-entries-regenerate policy.
	if m.cache != nil {
		for _, c := range cells {
			if _, ok := m.cache.Peek(c.Key); ok {
				c.cached = true // rehydrated: served from cache, never re-run
			}
		}
	}
	s := newSweep(p.ID, p.Spec, cells, p.Created)
	// Everything the scan did not rehydrate is resubmitted — including
	// any cell whose cache entry vanished after the scan above, which
	// repairOrphans re-checks cell by cell.
	if err := m.repairOrphans(s); err != nil {
		return false, fmt.Errorf("%s: %v", path, err)
	}
	m.mu.Lock()
	if _, dup := m.sweeps[p.ID]; !dup {
		m.sweeps[p.ID] = s
		m.order = append(m.order, s)
		m.evictLocked()
	}
	m.mu.Unlock()
	return true, nil
}

// repairOrphans backs every orphan cell — job == nil and not cached —
// with a job, re-checking the cache first. An orphan is a cell the
// rehydration scan skipped whose state then changed (classically: its
// cache entry evicted between the scan and the resubmit loop). Without
// repair such a cell is stuck — no job will ever run it, yet nothing
// marks it terminal — which is exactly the Wait/Finished divergence:
// Wait has nothing to block on and returns, while Info would count the
// cell Queued forever. Cells already backed by a job or a cache entry
// are untouched, so repairing an adopted sweep is idempotent.
func (m *Manager) repairOrphans(s *Sweep) error {
	for _, c := range s.Cells {
		if c.job != nil || c.cached {
			continue
		}
		if m.cache != nil {
			if _, ok := m.cache.Peek(c.Key); ok {
				c.cached = true
				continue
			}
		}
		j, err := m.sched.Submit(c.Experiment, c.Profile)
		if err != nil {
			return fmt.Errorf("resubmit %s/%s: %v", c.Experiment, c.Profile.Name, err)
		}
		c.job = j
	}
	return nil
}

// maxSweeps is the retained-sweep bound enforced by evictLocked.
const maxSweeps = 256

// evictLocked trims the oldest fully-finished sweeps once the index
// exceeds maxSweeps; m.mu must be held. Unfinished sweeps are never
// evicted, so the index can exceed the bound while that many grids are
// genuinely live.
func (m *Manager) evictLocked() {
	if len(m.sweeps) <= maxSweeps {
		return
	}
	kept := m.order[:0]
	for _, s := range m.order {
		if len(m.sweeps) > maxSweeps && s.Info(false).Finished() {
			delete(m.sweeps, s.ID)
			delete(m.unpersisted, s.ID)
			continue
		}
		kept = append(kept, s)
	}
	for i := len(kept); i < len(m.order); i++ {
		m.order[i] = nil // release evicted sweeps (and their job tables) to the GC
	}
	m.order = kept
}

// Get returns the sweep with the given ID.
func (m *Manager) Get(sid string) (*Sweep, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sweeps[sid]
	return s, ok
}

// List returns all sweeps in adoption order: the order they were
// submitted to (or recovered by) this process. Recovered sweeps keep
// their original creation timestamp in Info, but their list position
// reflects when this process adopted them.
func (m *Manager) List() []*Sweep {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Sweep(nil), m.order...)
}

// Len returns the number of known sweeps.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sweeps)
}
