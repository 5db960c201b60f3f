package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"imagebench/internal/fsatomic"
	"imagebench/internal/obs"
	"imagebench/internal/runner"
)

// Manager owns the live sweeps of one process and, when given a
// directory, persists each sweep's spec so a restarted daemon can
// re-adopt it. A sweep, submitted or recovered, is its cells' jobs:
// every cell goes through the scheduler, whose Submit answers a cell
// already in the result cache with a job done on arrival, so a
// recovered sweep re-runs only the cells the cache cannot serve.
//
// maxSweeps bounds the retained index: once exceeded, the oldest
// fully-finished sweeps are evicted. Their specs stay on disk (a
// re-POST of the same grid re-adopts them via the cache) and their
// cells' tables stay in the result cache; what eviction releases is
// the in-memory Sweep whose job pointers pin every cell's table.
type Manager struct {
	sched *runner.Scheduler
	dir   string // "" = memory only

	now func() time.Time // injected wall clock (timestamps are metadata, not identity)

	mu          sync.Mutex
	sweeps      map[string]*Sweep
	order       []*Sweep
	unpersisted map[string]bool // sweeps whose spec write failed; retried on resubmit
}

// NewManager returns a manager submitting through sched; dir, when
// non-empty, is created and used to persist sweep specs (one JSON file
// per sweep). now supplies creation timestamps (callers outside this
// package pass time.Now): sweep identity is content-addressed, so the
// clock is injected metadata and this package itself never reads wall
// time. A nil now stamps the zero time.
func NewManager(sched *runner.Scheduler, dir string, now func() time.Time) (*Manager, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("sweep: create %s: %w", dir, err)
		}
	}
	if now == nil {
		now = func() time.Time { return time.Time{} }
	}
	return &Manager{
		sched: sched, dir: dir, now: now,
		sweeps:      make(map[string]*Sweep),
		unpersisted: make(map[string]bool),
	}, nil
}

// persisted is the on-disk form of a sweep: the spec plus identity.
// Cell status is not persisted: the result cache records completion.
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
	s, existing, err = m.adopt(GridID(cells), spec, cells, m.now(), true)
	if err != nil {
		return nil, false, err
	}
	return s, existing, m.ensurePersisted(s)
}

// adopt registers the grid sid unless it is already known, submitting
// every cell through the scheduler first: a cell whose result is cached
// is done on arrival, one in flight is joined, and only the rest run.
// It is the one path for both a new and a recovered sweep. persist
// marks a newly registered sweep's spec as still to be written, in the
// same critical section that registers it, so a concurrent identical
// Submit cannot report durability before the file exists; a recovered
// sweep's spec is already on disk.
func (m *Manager) adopt(sid string, spec Spec, cells []*Cell, created time.Time, persist bool) (*Sweep, bool, error) {
	m.mu.Lock()
	if s, ok := m.sweeps[sid]; ok {
		m.mu.Unlock()
		return s, true, nil
	}
	// Unlocked while submitting, so other sweeps' reads do not stall: a
	// concurrent adopt of this grid joins the same jobs in the
	// scheduler, and the re-check under the lock keeps one sweep.
	m.mu.Unlock()

	// The sweep root span parents every cell's job span; it ends (in a
	// watcher goroutine) when the last cell terminates.
	sctx, root := obs.StartSpan(m.sched.ObsContext(), "sweep")
	root.SetAttr("sweep", sid)
	root.SetAttr("cells", strconv.Itoa(len(cells)))
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
	s := &Sweep{ID: sid, Spec: spec, Cells: cells, created: created}
	watchSweep(root, s)

	m.mu.Lock()
	defer m.mu.Unlock()
	if prior, ok := m.sweeps[sid]; ok {
		return prior, true, nil
	}
	m.sweeps[sid] = s
	m.order = append(m.order, s)
	if persist && m.dir != "" {
		m.unpersisted[sid] = true
	}
	m.evictLocked()
	return s, false, nil
}

// ensurePersisted writes the sweep's spec file (temp + rename) if no
// write has succeeded yet, so a client retrying POST /v1/sweeps after
// freeing disk space actually restores restart durability instead of
// getting a hollow 200. An identical Submit racing it may write the
// same bytes; both go through an atomic rename, and the flag only
// clears after a write that succeeded.
func (m *Manager) ensurePersisted(s *Sweep) error {
	m.mu.Lock()
	pending := m.unpersisted[s.ID]
	m.mu.Unlock()
	if !pending {
		return nil
	}
	b, err := json.MarshalIndent(persisted{ID: s.ID, Created: s.created, Spec: s.Spec}, "", "  ")
	if err == nil {
		err = fsatomic.WriteFile(filepath.Join(m.dir, s.ID+".json"), b)
	}
	if err != nil {
		return fmt.Errorf("sweep %s is running but not persisted: %w", s.ID, err)
	}
	m.mu.Lock()
	delete(m.unpersisted, s.ID)
	m.mu.Unlock()
	return nil
}

// Recover re-adopts every persisted sweep, resubmitting its cells: the
// result cache answers the ones that completed before the restart, and
// only the rest run. It returns the number of sweeps adopted. Files
// that no longer expand (an experiment deregistered, a corrupt spec)
// are skipped and reported in the combined error after all
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
	if got := GridID(cells); got != p.ID {
		// The registry or key scheme changed under the persisted spec;
		// adopting it under the old ID would serve a different grid.
		return false, fmt.Errorf("%s: grid now expands to %s, persisted as %s", path, got, p.ID)
	}
	_, known, err := m.adopt(p.ID, p.Spec, cells, p.Created, false)
	if err != nil {
		return false, fmt.Errorf("%s: %v", path, err)
	}
	return !known, nil
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
