// Package sweep is the parameter-grid batch engine of the experiment
// service: it expands a declarative spec — experiment IDs or globs ×
// profiles × overrides (cluster sizes, subject counts, visit counts) —
// into a deduplicated set of grid cells, submits every cell through the
// shared worker-pool scheduler (internal/runner), and aggregates
// per-cell status and results. This is the paper's own methodology as a
// service: every system × workload × cluster-size combination, re-run
// under many configurations, with already-computed cells answered from
// the content-addressed result cache instead of re-simulated.
package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/results"
	"imagebench/internal/runner"
)

// Spec declares a sweep grid. Experiments are exact IDs, path globs
// ("fig10*"), or "all". Profiles are built-in profile names (default
// ["quick"]). Each override set is one grid axis point applied to each
// profile; an empty list means one axis point with no overrides.
type Spec struct {
	Experiments []string         `json:"experiments"`
	Profiles    []string         `json:"profiles,omitempty"`
	Overrides   []core.Overrides `json:"overrides,omitempty"`
}

// Cell is one grid point: an experiment under a fully-derived profile.
// Once its sweep is registered, the cell's job holds its status: a
// cell whose result was already cached has a job done on arrival.
type Cell struct {
	Experiment string
	Profile    core.Profile
	Key        string

	// Base and Override record how Profile was derived — the base
	// profile's name and the applied override set — so a federation
	// coordinator can re-derive the exact profile on a remote worker
	// through POST /v1/jobs, where derived profiles have no standalone
	// name to submit by.
	Base     string
	Override core.Overrides

	axis int // position of (profile, override) in the spec's axis order
	job  *runner.Job
}

// CellInfo is a cell's point-in-time state, shaped for JSON.
type CellInfo struct {
	Experiment string        `json:"experiment"`
	Profile    string        `json:"profile"`
	Key        string        `json:"key"`
	Status     runner.Status `json:"status"`
	CacheHit   bool          `json:"cacheHit,omitempty"`
	Error      string        `json:"error,omitempty"`
	// Unsupported marks a cell whose experiment is not applicable under
	// the cell's engine filter (engine.ErrUnsupported) — expected when a
	// systems axis crosses per-engine experiments, so it is counted
	// apart from real failures.
	Unsupported bool    `json:"unsupported,omitempty"`
	ElapsedSec  float64 `json:"elapsedSec"`
}

// Info aggregates a sweep's progress.
type Info struct {
	ID      string `json:"id"`
	Created string `json:"created"`
	Total   int    `json:"total"`
	Queued  int    `json:"queued"`
	Running int    `json:"running"`
	Done    int    `json:"done"`
	Failed  int    `json:"failed"`
	// Unsupported counts not-applicable cells (see CellInfo.Unsupported);
	// they are terminal but excluded from Failed.
	Unsupported int        `json:"unsupported,omitempty"`
	Hits        int        `json:"cacheHits"`
	Cells       []CellInfo `json:"cells,omitempty"`
}

// Add tallies one cell into the aggregate counts, and into Cells when
// withCells is set. It is the only place a cell state maps to a
// counter: Sweep.Info and the federation coordinator's SweepInfo both
// build their Info through it, so the two surfaces cannot disagree on
// what counts as failed versus not applicable.
func (i *Info) Add(ci CellInfo, withCells bool) {
	switch ci.Status {
	case runner.StatusDone:
		i.Done++
		if ci.CacheHit {
			i.Hits++
		}
	case runner.StatusFailed:
		if ci.Unsupported {
			i.Unsupported++
		} else {
			i.Failed++
		}
	case runner.StatusRunning:
		i.Running++
	default:
		i.Queued++
	}
	if withCells {
		i.Cells = append(i.Cells, ci)
	}
}

// Finished reports whether every cell is terminal.
func (i Info) Finished() bool { return i.Done+i.Failed+i.Unsupported == i.Total }

// Sweep is one submitted grid. Cells are immutable after construction;
// their status lives in the underlying jobs.
type Sweep struct {
	ID      string
	Spec    Spec
	Cells   []*Cell
	created time.Time
}

// Expand resolves the spec into its deduplicated, deterministically
// ordered cell set (no jobs attached). Two textually different specs
// that denote the same grid expand to the same cells, and therefore the
// same sweep ID.
func Expand(spec Spec) ([]*Cell, error) {
	ids, err := core.ExpandIDs(spec.Experiments)
	if err != nil {
		return nil, err
	}
	profiles := spec.Profiles
	if len(profiles) == 0 {
		profiles = []string{"quick"}
	}
	overrides := spec.Overrides
	if len(overrides) == 0 {
		overrides = []core.Overrides{{}}
	}
	for _, o := range overrides {
		if err := o.Validate(); err != nil {
			return nil, err
		}
	}
	var cells []*Cell
	seen := make(map[string]bool)
	axis := 0
	for _, name := range profiles {
		base, err := core.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		for _, o := range overrides {
			p := base.Apply(o)
			for _, id := range ids {
				key := results.Key(id, p)
				if seen[key] {
					continue
				}
				seen[key] = true
				cells = append(cells, &Cell{Experiment: id, Profile: p, Key: key, Base: name, Override: o, axis: axis})
			}
			axis++
		}
	}
	// Rows sort by experiment; columns keep the spec's axis order, so
	// "-nodes 4,8,16" renders 4, 8, 16 — not the lexicographic 16, 4, 8.
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Experiment != cells[j].Experiment {
			return cells[i].Experiment < cells[j].Experiment
		}
		return cells[i].axis < cells[j].axis
	})
	return cells, nil
}

// GridID derives the sweep's content address from its sorted cell
// keys: the same grid always gets the same ID — across processes,
// restarts, and axis orderings — which is what lets a restarted daemon
// re-adopt its persisted sweeps and makes POST /v1/sweeps idempotent.
// The federation coordinator derives its sweep IDs through it too, so
// GET /v1/sweeps/{id} means the same thing on a worker daemon and on a
// coordinator.
func GridID(cells []*Cell) string {
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = c.Key
	}
	sort.Strings(keys)
	h := sha256.New()
	h.Write([]byte("imagebench/sweep/v1"))
	for _, k := range keys {
		h.Write([]byte{0})
		h.Write([]byte(k))
	}
	return "sw-" + hex.EncodeToString(h.Sum(nil))[:12]
}

// Info returns the sweep's aggregate progress; withCells includes the
// per-cell states.
func (s *Sweep) Info(withCells bool) Info {
	info := Info{
		ID:      s.ID,
		Created: s.created.UTC().Format(time.RFC3339Nano),
		Total:   len(s.Cells),
	}
	for _, c := range s.Cells {
		info.Add(s.cellInfo(c), withCells)
	}
	return info
}

// Wait blocks until every cell is terminal or ctx is canceled. Cell
// failures are not an error here — they are visible in Info — so a
// sweep with failed cells still "finishes".
func (s *Sweep) Wait(ctx context.Context) error {
	for _, c := range s.Cells {
		select {
		case <-c.job.Done():
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Result returns one cell's table: from its job, or from the cache if
// the job's table was released after streaming. The boolean is false
// while the cell is still pending or if it failed.
func (s *Sweep) Result(c *Cell, cache *results.Cache) (*core.Table, bool) {
	tab, err := c.job.Result()
	if err != nil {
		return nil, false
	}
	if tab != nil {
		return tab, true
	}
	// Done but released (ReleaseTable): fall back to the cache.
	if cache != nil {
		if e, ok := cache.Peek(c.Key); ok {
			return e.Table, true
		}
	}
	return nil, false
}

// GridLabels returns the sweep's axes for rendering: sorted experiment
// IDs (rows) and derived profile names in first-appearance order
// (columns).
func (s *Sweep) GridLabels() (rows, cols []string) {
	seenRow := map[string]bool{}
	seenCol := map[string]bool{}
	for _, c := range s.Cells {
		if !seenRow[c.Experiment] {
			seenRow[c.Experiment] = true
			rows = append(rows, c.Experiment)
		}
		if !seenCol[c.Profile.Name] {
			seenCol[c.Profile.Name] = true
			cols = append(cols, c.Profile.Name)
		}
	}
	sort.Strings(rows)
	return rows, cols
}
