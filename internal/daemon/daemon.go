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
	"imagebench/internal/memo"
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
// sweeps re-adopted, with completed cells rehydrating from the cache.
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
	registerKernelMemoMetrics(d.Metrics)

	opts := runner.Options{
		Workers: cfg.Workers, QueueDepth: cfg.QueueDepth, MaxJobs: cfg.MaxJobs,
		Cache: cache, Tracer: d.Tracer, Metrics: d.Metrics,
	}
	if cfg.Journal != "" && cfg.CacheDir == "" {
		// The journal retires a job on OpDone because its result is
		// rereadable from the disk cache; with a memory-only cache that
		// premise is false and completed results vanish on restart.
		d.Warnings = append(d.Warnings,
			"-journal without -cache-dir: completed results will not survive a restart (only pending jobs recover)")
	}
	if cfg.Journal != "" {
		// Compact before opening for append: completed history is
		// dropped (the cache holds those results), so the journal stays
		// proportional to pending work instead of total traffic. Must
		// happen before OpenJournal — compaction renames the file.
		if _, err := runner.CompactJournal(cfg.Journal); err != nil {
			d.Warnings = append(d.Warnings, fmt.Sprintf("journal compaction: %v", err))
		}
		j, err := runner.OpenJournal(cfg.Journal)
		if err != nil {
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
	mgr, err := sweep.NewManager(d.Sched, cache, cfg.SweepDir, time.Now)
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

// registerKernelMemoMetrics exposes the process-wide stage memo
// (package memo), traffic split by the kind of stage served: text
// (SciDB's aio_input CSV crossing), decode (a staged FITS exposure) and
// load (a staged NIfTI or NumPy object). The cells of a clusterNodes
// sweep over an experiment have distinct result keys, so the result
// cache reports them as misses, yet they decode the same objects: these
// counters are where that reuse shows. The resets and bytes series add
// up the memo's two tables and have no label; key_digests says where
// the volume digests in the keys came from, the digest a held volume
// carries (index) or a hash of the voxels (content).
// Beside them, from a table of the same type, the experiments' shared
// inputs (core.InputStats): how many of a pass's workload requests were
// served and how many generated their input.
func registerKernelMemoMetrics(m *obs.Registry) {
	hits := m.NewCounterVec("imagebench_kernel_memo_hits_total",
		"Stage calls served from the content-keyed memo, by kind of stage.", "kind")
	misses := m.NewCounterVec("imagebench_kernel_memo_misses_total",
		"Stage calls that ran the computation, by kind of stage.", "kind")
	for _, k := range memo.Kinds() {
		hits.WithFunc(func() float64 { return float64(memo.Snapshot().Kinds[k].Hits) }, k.String())
		misses.WithFunc(func() float64 { return float64(memo.Snapshot().Kinds[k].Misses) }, k.String())
	}
	m.NewCounterFunc("imagebench_kernel_memo_resets_total",
		"Times the memo dropped a table to stay within its byte budget.",
		func() float64 { return float64(memo.Snapshot().Resets) })
	m.NewGaugeFunc("imagebench_kernel_memo_bytes",
		"Result bytes the memo holds, all kinds together.",
		func() float64 { return float64(memo.Snapshot().Bytes) })
	digests := m.NewCounterVec("imagebench_kernel_memo_key_digests_total",
		"Volume digests the memo's keys were built from, by source: index, the digest a volume the memo held carries; content, the voxels hashed.", "source")
	digests.WithFunc(func() float64 { return float64(memo.Snapshot().IndexedDigests) }, "index")
	digests.WithFunc(func() float64 { return float64(memo.Snapshot().ContentDigests) }, "content")

	hits = m.NewCounterVec("imagebench_shared_input_hits_total",
		"Workload requests served the process's shared input, by use case.", "kind")
	misses = m.NewCounterVec("imagebench_shared_input_misses_total",
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
// log — worker completion records and results are still being appended
// until the scheduler's Close returns.
func (d *Daemon) Close() {
	d.Sched.Close()
	if d.journal != nil {
		d.journal.Close()
	}
	d.Cache.Close()
}
