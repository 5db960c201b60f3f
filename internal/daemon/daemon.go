// Package daemon assembles the experiment service — scheduler, result
// cache, sweep manager, journal recovery, metrics registry, and HTTP
// API — into one embeddable unit. cmd/imagebenchd wraps it in a real
// listener; the benchmark's workloads and the tests boot the identical
// daemon in-process, so what gets measured is what ships.
package daemon

import (
	"fmt"
	"net/http"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/obs"
	"imagebench/internal/results"
	"imagebench/internal/runner"
	"imagebench/internal/sweep"
)

// Config is everything needed to stand up the service; main fills it
// from flags, tests and the benchmark fill it directly.
type Config struct {
	Workers    int
	QueueDepth int
	// MaxJobs bounds the retained job index (see runner.Options.MaxJobs);
	// 0 means the runner default. Evicted jobs remain pollable through
	// their tombstones as long as their results stay cached.
	MaxJobs  int
	CacheDir string // "" = memory-only result cache
	Journal  string // "" = no job journal
	SweepDir string // "" = sweeps are not persisted
}

// Daemon bundles the service's long-lived state. Construction performs
// crash recovery: pending journaled jobs are resubmitted and persisted
// sweeps re-adopted by resubmitting their cells, which the cache
// answers for every cell that completed before the restart.
type Daemon struct {
	Cache   *results.Cache
	Sched   *runner.Scheduler
	Sweeps  *sweep.Manager
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	Handler http.Handler

	journal *runner.FileJournal

	RecoveredJobs   int
	RecoveredSweeps int
	Warnings        []string
}

// New constructs and recovers a daemon.
func New(cfg Config) (*Daemon, error) {
	cache, err := results.Open(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	// The observability spine is always on: a registry for /metrics and
	// a tracer for job/sweep span trees. Neither perturbs the
	// simulations — spans record around them, never inside their timing.
	d := &Daemon{Cache: cache, Metrics: obs.NewRegistry(), Tracer: obs.NewTracer()}
	obs.RegisterGoMetrics(d.Metrics)
	registerCacheMetrics(d.Metrics, cache)
	registerSharedInputMetrics(d.Metrics)

	opts := runner.Options{
		Workers: cfg.Workers, QueueDepth: cfg.QueueDepth, MaxJobs: cfg.MaxJobs,
		Cache: cache, Tracer: d.Tracer, Metrics: d.Metrics,
	}
	if cfg.Journal != "" && cfg.CacheDir == "" {
		// Replay skips a journaled job when the cache holds its result;
		// a memory-only cache holds none after a restart, so every
		// journaled job, finished or not, runs again.
		d.Warnings = append(d.Warnings,
			"-journal without -cache-dir: a restart re-runs every journaled job (the cache, not the journal, records completion)")
	}
	if cfg.Journal != "" {
		// Compact before opening for append: submits the cache has
		// results for are dropped, so the journal stays proportional to
		// unfinished work instead of total traffic. Must happen before
		// OpenJournal — compaction renames the file.
		if _, err := runner.CompactJournal(cfg.Journal, cache); err != nil {
			d.Warnings = append(d.Warnings, fmt.Sprintf("journal compaction: %v", err))
		}
		j, err := runner.OpenJournal(cfg.Journal)
		if err != nil {
			cache.Close()
			return nil, err
		}
		d.journal = j
		opts.Journal = j
	}
	d.Sched = runner.New(opts)

	// Recovery is best-effort: a journal resubmission that no longer
	// resolves (an experiment renamed between versions) or a stale sweep
	// spec must not keep the daemon from serving fresh traffic.
	if cfg.Journal != "" {
		n, err := runner.Recover(cfg.Journal, d.Sched)
		d.RecoveredJobs = n
		if err != nil {
			d.Warnings = append(d.Warnings, fmt.Sprintf("journal recovery: %v", err))
		}
	}
	mgr, err := sweep.NewManager(d.Sched, cfg.SweepDir, time.Now)
	if err != nil {
		d.Close()
		return nil, err
	}
	d.Sweeps = mgr
	mgr.RegisterMetrics(d.Metrics)
	n, err := mgr.Recover()
	d.RecoveredSweeps = n
	if err != nil {
		d.Warnings = append(d.Warnings, fmt.Sprintf("sweep recovery: %v", err))
	}

	d.Handler = newServer(d.Sched, d.Cache, d.Sweeps, d.Metrics)
	return d, nil
}

// registerCacheMetrics exposes the result cache's traffic counters,
// hits split by serving layer (the in-memory map vs a disk
// read-through). The cache keeps its own atomics; the registry samples
// them at scrape time.
func registerCacheMetrics(m *obs.Registry, cache *results.Cache) {
	hits := m.NewCounterVec("imagebench_cache_hits_total",
		"Result-cache hits, by the layer that served the entry.", "layer")
	hits.WithFunc(func() float64 { return float64(cache.Stats().MemHits) }, "memory")
	hits.WithFunc(func() float64 { return float64(cache.Stats().DiskHits) }, "disk")
	m.NewCounterFunc("imagebench_cache_misses_total",
		"Result-cache misses.",
		func() float64 { return float64(cache.Stats().Misses) })
	m.NewGaugeFunc("imagebench_cache_entries",
		"Entries in the result cache (memory and disk union).",
		func() float64 { return float64(cache.Stats().Entries) })
	m.NewCounterFunc("imagebench_cache_log_records_total",
		"Records appended to the result cache's log; over the fsyncs, the group size.",
		func() float64 { return float64(cache.Stats().LogRecords) })
	m.NewCounterFunc("imagebench_cache_log_fsyncs_total",
		"Fsyncs the result cache's log issued, one a group of records.",
		func() float64 { return float64(cache.Stats().LogFsyncs) })
}

// registerSharedInputMetrics exposes the experiments' shared inputs
// (core.InputStats): how many of a pass's workload requests were served
// and how many generated their input. The cells of a clusterNodes sweep
// over an experiment have distinct result keys, so the result cache
// reports them as misses, yet they read the same inputs: these counters
// are where that reuse shows.
func registerSharedInputMetrics(m *obs.Registry) {
	hits := m.NewCounterVec("imagebench_shared_input_hits_total",
		"Workload requests served the process's shared input, by use case.", "kind")
	misses := m.NewCounterVec("imagebench_shared_input_misses_total",
		"Workload requests that generated their input, by use case.", "kind")
	for i, kind := range core.InputKinds() {
		hits.WithFunc(func() float64 { return float64(core.InputStats().Kinds[i].Hits) }, kind)
		misses.WithFunc(func() float64 { return float64(core.InputStats().Kinds[i].Misses) }, kind)
	}
	m.NewGaugeFunc("imagebench_shared_input_bytes",
		"Encoded object bytes the shared inputs hold, all use cases together.",
		func() float64 { return float64(core.InputStats().Bytes) })
}

// Close drains the scheduler, then closes the journal and the cache's
// log — results are still being appended until the scheduler's Close
// returns.
func (d *Daemon) Close() {
	d.Sched.Close()
	if d.journal != nil {
		d.journal.Close()
	}
	d.Cache.Close()
}
