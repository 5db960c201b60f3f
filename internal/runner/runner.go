// Package runner is the experiment scheduler of the service layer: a
// bounded worker pool that executes core experiments concurrently, with
// per-job status, context cancellation, single-flight deduplication of
// identical requests, and write-through to the content-addressed result
// cache (internal/results). The CLI and the imagebenchd daemon both run
// experiments through it, so a 24-experiment sweep uses every core
// instead of one. Cells that differ only in axes their experiment ignores
// share one run (see follow), each keeping an entry of its own key.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/engine"
	"imagebench/internal/obs"
	"imagebench/internal/results"
)

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// ErrQueueFull is returned by Submit when the scheduler's backlog is at
// capacity; callers should retry later or shed load.
var ErrQueueFull = errors.New("runner: job queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("runner: scheduler closed")

// Options configures a Scheduler.
type Options struct {
	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the backlog of queued jobs; 0 means 1024.
	QueueDepth int
	// MaxJobs bounds the retained job index: once exceeded, the oldest
	// *terminated* jobs are evicted (their results stay in the cache),
	// amortized O(1) per submit. 0 means 4096. The daemon is long-lived;
	// without a bound the index would grow by one entry per submit forever.
	MaxJobs int
	// Cache, when non-nil, is consulted before scheduling and written
	// through after every successful run.
	Cache *results.Cache
	// Journal, when non-nil, receives a submit record for every
	// accepted job that has to run, making the queue crash-safe:
	// replaying the journal after a restart (see Recover) resubmits
	// exactly the jobs whose results Cache does not hold. Journal write
	// failures do not fail jobs; they are counted in
	// Stats.JournalErrors.
	Journal *FileJournal
	// Tracer, when non-nil, records a span tree per job (queued →
	// execute → cache-write, plus the per-engine stage spans emitted
	// inside the simulations).
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives the scheduler's Prometheus
	// metrics: job-lifecycle counters, pool gauges, and the
	// imagebench_job_latency_seconds histogram.
	Metrics *obs.Registry
}

// Job is one scheduled experiment run. Jobs are created by Submit and
// owned by the scheduler; read them through Snapshot, Done, and Result.
type Job struct {
	id        string
	key       string
	exp       *core.Experiment
	profile   core.Profile
	done      chan struct{}
	followers []*Job // waiting on this job's run (see follow); guarded by Scheduler.mu
	pooled    bool   // sent to the worker pool, whose run settles followers; guarded by Scheduler.mu

	// Observability state, set once at submission (nil without a
	// tracer): the job's root span, its queued child, and the context
	// whose values parent the execute-phase spans.
	span       *obs.Span
	queuedSpan *obs.Span
	obsCtx     context.Context

	mu        sync.Mutex
	status    Status
	err       error
	table     *core.Table
	cacheHit  bool
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// Info is a point-in-time view of a job, shaped for JSON.
type Info struct {
	ID         string `json:"id"`
	Experiment string `json:"experiment"`
	Profile    string `json:"profile"`
	ResultKey  string `json:"resultKey"`
	Status     Status `json:"status"`
	Error      string `json:"error,omitempty"`
	// Unsupported marks a failure that wraps engine.ErrUnsupported: the
	// (experiment, engine-filter) combination is not applicable — e.g. a
	// Myria tuning study under a Spark-only systems filter — rather than
	// broken. Sweep grids render these cells as "n/a", not errors.
	Unsupported bool `json:"unsupported,omitempty"`
	// CacheHit marks a job served from its own key's cache entry or (a
	// follower, see Submit) its canonical profile's, not from a run.
	CacheHit   bool    `json:"cacheHit"`
	Submitted  string  `json:"submitted"`
	ElapsedSec float64 `json:"elapsedSec"`
	// Evicted marks an Info reconstructed from an eviction tombstone:
	// the job itself left the retained index (MaxJobs exceeded), but its
	// terminal state — and, for done jobs, its result in the
	// content-addressed cache — survived it.
	Evicted bool `json:"evicted,omitempty"`
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the job's table and error. It is only meaningful after
// Done is closed; before that it reports the job as still pending.
func (j *Job) Result() (*core.Table, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.status {
	case StatusDone:
		return j.table, nil
	case StatusFailed:
		return nil, j.err
	}
	return nil, fmt.Errorf("runner: job %s still %s", j.id, j.status)
}

// ReleaseTable drops a done job's reference to its result table, so a
// batch consumer that has already written the result out (the
// streaming sweep artifact) returns the memory to the GC immediately
// instead of holding every cell's table until eviction — O(workers)
// live tables instead of O(cells). Subsequent Result calls on a
// released job return (nil, nil); callers that may read a result twice
// must not release it in between. Snapshot and the job's terminal
// status are unaffected. No-op unless the job is done.
func (j *Job) ReleaseTable() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status == StatusDone {
		j.table = nil
	}
}

// Snapshot returns the job's current state.
func (j *Job) Snapshot() Info {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := Info{
		ID:         j.id,
		Experiment: j.exp.ID,
		Profile:    j.profile.Name,
		ResultKey:  j.key,
		Status:     j.status,
		CacheHit:   j.cacheHit,
		Submitted:  j.submitted.UTC().Format(time.RFC3339Nano),
	}
	if j.err != nil {
		info.Error = j.err.Error()
		info.Unsupported = errors.Is(j.err, engine.ErrUnsupported)
	}
	switch {
	case !j.finished.IsZero() && !j.started.IsZero():
		info.ElapsedSec = j.finished.Sub(j.started).Seconds()
	case !j.started.IsZero():
		info.ElapsedSec = time.Since(j.started).Seconds()
	}
	return info
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	j.mu.Unlock()
}

func (j *Job) finish(tab *core.Table, err error, cacheHit bool) {
	j.mu.Lock()
	if err != nil {
		j.status = StatusFailed
		j.err = err
	} else {
		j.status = StatusDone
		j.table = tab
	}
	j.cacheHit = cacheHit
	j.finished = time.Now()
	j.mu.Unlock()
	close(j.done)
}

// Stats aggregates scheduler activity since construction.
type Stats struct {
	Workers        int     `json:"workers"`
	Submitted      int64   `json:"jobsSubmitted"`
	Executed       int64   `json:"jobsExecuted"`
	Failed         int64   `json:"jobsFailed"`
	Deduped        int64   `json:"jobsDeduped"`
	CacheHits      int64   `json:"cacheHits"`
	InFlight       int     `json:"inFlight"`
	Running        int64   `json:"running"`
	JournalErrors  int64   `json:"journalErrors"`
	VirtualSeconds float64 `json:"virtualSecondsSimulated"`
}

// Scheduler runs experiments on a bounded worker pool.
type Scheduler struct {
	opts   Options
	ctx    context.Context
	cancel context.CancelFunc
	queue  chan *Job
	wg     sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*Job // by job ID
	order    []*Job          // retained jobs in submission order, from head
	head     int
	inflight map[string]*Job // by result key, queued or running
	nextSeq  int64
	vsecs    float64 // virtual seconds simulated (guarded by mu)

	// Eviction tombstones: when evictLocked drops a terminated job, the
	// few bytes a poller needs to find its result again (the job ID →
	// result key mapping plus terminal state) are retained here, FIFO-
	// bounded by MaxJobs (tombRing, written at tombNext). Without this, a
	// submit-then-poll client whose job was evicted under load sees a 404
	// even though the result is sitting in the content-addressed cache.
	tombs    map[string]tombstone
	tombRing []string
	tombNext int

	jobLatency *obs.Histogram

	submitted   atomic.Int64
	executed    atomic.Int64
	failed      atomic.Int64
	deduped     atomic.Int64
	cacheHits   atomic.Int64
	running     atomic.Int64
	journalErrs atomic.Int64
}

// journalSubmit records an accepted job that has to run, best-effort:
// a write failure (disk full, closed file) never fails the job, it only
// increments the JournalErrors counter.
func (s *Scheduler) journalSubmit(j *Job) {
	if s.opts.Journal == nil {
		return
	}
	p := j.profile
	r := Record{Time: time.Now().UTC().Format(time.RFC3339Nano), Op: OpSubmit,
		JobID: j.id, Key: j.key, Experiment: j.exp.ID, Profile: &p}
	if err := s.opts.Journal.Record(r); err != nil {
		s.journalErrs.Add(1)
	}
}

// New starts a scheduler with opts.Workers workers.
func New(opts Options) *Scheduler {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 1024
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 4096
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		opts:     opts,
		ctx:      ctx,
		cancel:   cancel,
		queue:    make(chan *Job, opts.QueueDepth),
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
	}
	if opts.Metrics != nil {
		s.registerMetrics(opts.Metrics)
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit schedules one experiment run under p and returns its job.
// Identical requests are deduplicated twice over: if an identical job
// is queued or running, Submit returns that same job (single-flight);
// if the result is already cached, Submit returns a job that is done on
// arrival, served from the cache without touching the worker pool.
// After a miss, a job whose canonical profile is not p follows that
// profile's run (see follow).
func (s *Scheduler) Submit(experimentID string, p core.Profile) (*Job, error) {
	return s.SubmitWithContext(context.Background(), experimentID, p)
}

// SubmitWithContext is Submit with a caller context used ONLY for span
// parentage (a sweep passes its root-span context so cell jobs nest
// under the sweep): cancellation still follows the scheduler's own
// lifecycle, never the submitter's.
func (s *Scheduler) SubmitWithContext(ctx context.Context, experimentID string, p core.Profile) (*Job, error) {
	e, err := core.Lookup(experimentID)
	if err != nil {
		return nil, err
	}
	ctx = s.withObs(ctx)
	key := results.Key(e.ID, p)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if j, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		// Unlocked: j may finish in the meantime, which any joiner has
		// to expect anyway; the counter and the event are both in place
		// before this Submit returns.
		s.deduped.Add(1)
		j.span.AddEvent("dedup-join")
		return j, nil
	}
	j := s.newJobLocked(e, p, key)
	j.startJobSpans(ctx, e)

	// Serve from cache without scheduling. The cache probe happens with
	// the job registered in-flight so a concurrent identical Submit
	// joins this job rather than racing the probe.
	s.inflight[key] = j
	s.mu.Unlock()
	if s.opts.Cache != nil {
		if entry, ok := s.opts.Cache.Get(key); ok {
			s.cacheHits.Add(1)
			s.finishJob(j, entry.Table, nil, true)
			// Done closes before the key leaves the in-flight map, so an
			// identical Submit arriving in between joins this finished
			// job instead of probing the cache itself: same table either
			// way, counted as a dedup rather than a cache hit.
			s.mu.Lock()
			delete(s.inflight, key)
			s.mu.Unlock()
			return j, nil
		}
	}
	// A canonical profile named as p is run as p.
	if cp := e.Canonical(p); cp.Name != p.Name {
		return s.follow(ctx, j, cp)
	}
	s.mu.Lock()
	if s.closed {
		// The job stays registered (a concurrent identical Submit may
		// have joined it and handed out its ID) but fails.
		delete(s.inflight, key)
		s.mu.Unlock()
		s.failed.Add(1)
		s.finishJob(j, nil, ErrClosed, false)
		return nil, ErrClosed
	}

	// The submit record is written before the job becomes runnable (and
	// before s.mu is released), so a crash after this point can never
	// lose an accepted job. The cost is one file append under the lock.
	// A shed job keeps its record, so the next recovery retries it.
	s.journalSubmit(j)
	select {
	case s.queue <- j:
		j.pooled = true
		s.mu.Unlock()
		return j, nil
	default:
		delete(s.inflight, key)
		s.mu.Unlock()
		s.failed.Add(1)
		s.finishJob(j, nil, ErrQueueFull, false)
		return nil, ErrQueueFull
	}
}

// follow settles j, whose own key the cache missed, from the one run of
// its canonical profile cp: the cached entry, or else the canonical job,
// joined or submitted. A follower takes no worker, queue slot or
// goroutine; it counts as a cache hit or a dedup.
func (s *Scheduler) follow(ctx context.Context, j *Job, cp core.Profile) (*Job, error) {
	ckey := results.Key(j.exp.ID, cp)
	j.span.AddEvent("shared", obs.Attr{Key: "key", Value: ckey})
	for {
		if s.opts.Cache != nil {
			if c, ok := s.opts.Cache.Get(ckey); ok {
				s.cacheHits.Add(1)
				s.share(j, c.Table, nil, true, j)
				return j, nil
			}
		}
		followMissed(j)
		lead, err := s.SubmitWithContext(ctx, j.exp.ID, cp)
		if err != nil {
			s.share(j, nil, err, false, j)
			return nil, err
		}
		s.mu.Lock()
		// Only run settles followers (see pooled); other leaders are waited out.
		if s.inflight[ckey] == lead && lead.pooled {
			lead.followers = append(lead.followers, j)
			s.journalSubmit(j) // under s.mu, as for a queued job
			s.mu.Unlock()
			s.deduped.Add(1)
			return j, nil
		}
		s.mu.Unlock()
		// The leader is finishing (done and cached, or with no cache to
		// be run again, or failed) or is not on the worker pool.
		<-lead.Done()
		if _, err := lead.Result(); err != nil {
			s.share(j, nil, err, false, j)
			return j, nil
		}
	}
}

// share settles followers with their leader's outcome. On success each
// gets an entry of its own key and profile holding the shared table, all
// written as one group before any leaves the in-flight map.
func (s *Scheduler) share(on *Job, tab *core.Table, err error, cacheHit bool, fs ...*Job) {
	if err == nil {
		s.put(on, tab, fs...)
	} else {
		s.failed.Add(int64(len(fs)))
	}
	s.mu.Lock()
	for _, f := range fs {
		delete(s.inflight, f.key)
	}
	s.mu.Unlock()
	for _, f := range fs {
		s.finishJob(f, tab, err, cacheHit)
	}
}

// put files tab under each job's key and profile as one cache group, in
// on's cache-write span. A write-through failure (disk full) does not
// fail the jobs: the memory tier still serves this process, and a
// restarted one re-runs the journaled jobs its cache does not hold.
func (s *Scheduler) put(on *Job, tab *core.Table, jobs ...*Job) {
	if s.opts.Cache == nil {
		return
	}
	entries := make([]*results.Entry, len(jobs))
	for i, j := range jobs {
		entries[i] = &results.Entry{Key: j.key, Experiment: j.exp.ID, Profile: j.profile, Table: tab}
	}
	_, putSpan := obs.StartSpan(on.execCtxValues(), "cache-write")
	if err := s.opts.Cache.Put(entries...); err != nil {
		putSpan.SetAttr("error", err.Error())
	}
	putSpan.End()
}

// followMissed runs after a follower's canonical entry misses, before it
// looks for the canonical job; tests set it to stage a leader's state.
var followMissed = func(*Job) {}

// newJobLocked registers a fresh queued job; s.mu must be held.
func (s *Scheduler) newJobLocked(e *core.Experiment, p core.Profile, key string) *Job {
	s.nextSeq++
	j := &Job{
		id:        fmt.Sprintf("job-%d", s.nextSeq),
		key:       key,
		exp:       e,
		profile:   p,
		done:      make(chan struct{}),
		status:    StatusQueued,
		submitted: time.Now(),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.submitted.Add(1)
	s.evictLocked()
	return j
}

// tombstone is what eviction keeps of a terminated job: enough to
// answer a late poll (terminal status, result key) without retaining
// the job, its table reference, or its span tree.
type tombstone struct {
	key         string
	experiment  string
	profile     string
	status      Status
	errMsg      string
	unsupported bool
	cacheHit    bool
	submitted   time.Time
	elapsedSec  float64
}

// evictLocked trims terminated jobs, oldest first, once the retained
// index exceeds MaxJobs; s.mu must be held. Queued and running jobs are
// never evicted, so the index can exceed the bound transiently while
// that many jobs are genuinely live. Each evicted job leaves a
// tombstone (see EvictedInfo). The scan stops once the index is within
// the bound: amortized O(1) per submit, plus a shift of any live jobs passed.
func (s *Scheduler) evictLocked() {
	lo, i := s.head, s.head // the live jobs passed are s.order[lo:i]
	for ; len(s.jobs) > s.opts.MaxJobs && i < len(s.order); i++ {
		if j := s.order[i]; j.terminated() {
			delete(s.jobs, j.id)
			s.entombLocked(j)
			// Live jobs passed shift up onto the evicted slot, in order.
			copy(s.order[lo+1:], s.order[lo:i])
			s.order[lo], lo = nil, lo+1 // released to the GC
		}
	}
	s.head = lo
	// Compact in place once the dead prefix is as long as the rest.
	if rest := len(s.order) - s.head; s.head >= rest {
		copy(s.order, s.order[s.head:])
		clear(s.order[rest:])
		s.order, s.head = s.order[:rest], 0
	}
}

// entombLocked records an evicted job's terminal state; s.mu must be
// held and the job must be terminated (its fields are settled, so
// reading them without j.mu cannot race finish).
func (s *Scheduler) entombLocked(j *Job) {
	if s.tombs == nil {
		s.tombs = make(map[string]tombstone)
		s.tombRing = make([]string, 4*s.opts.MaxJobs)
	}
	t := tombstone{
		key:        j.key,
		experiment: j.exp.ID,
		profile:    j.profile.Name,
		status:     j.status,
		cacheHit:   j.cacheHit,
		submitted:  j.submitted,
	}
	if j.err != nil {
		t.errMsg = j.err.Error()
		t.unsupported = errors.Is(j.err, engine.ErrUnsupported)
	}
	if !j.finished.IsZero() && !j.started.IsZero() {
		t.elapsedSec = j.finished.Sub(j.started).Seconds()
	}
	// A tombstone is ~150 bytes against a job's table and span tree, so
	// retaining 4x MaxJobs of them is cheap and keeps the poll window
	// usefully wider than the job window under heavy submit traffic.
	delete(s.tombs, s.tombRing[s.tombNext]) // the oldest, once the ring is full
	s.tombs[j.id] = t
	s.tombRing[s.tombNext] = j.id
	s.tombNext = (s.tombNext + 1) % len(s.tombRing)
}

// EvictedInfo reconstructs a terminal Info for a job that was evicted
// from the retained index. For done jobs it additionally requires the
// result to still be present in the cache (checked with Peek, so the
// probe does not skew client hit rates): a tombstone whose result has
// vanished is as unanswerable as no tombstone at all.
func (s *Scheduler) EvictedInfo(id string) (Info, bool) {
	s.mu.Lock()
	t, ok := s.tombs[id]
	s.mu.Unlock()
	if !ok {
		return Info{}, false
	}
	if t.status == StatusDone {
		if s.opts.Cache == nil {
			return Info{}, false
		}
		if _, ok := s.opts.Cache.Peek(t.key); !ok {
			return Info{}, false
		}
	}
	return Info{
		ID:          id,
		Experiment:  t.experiment,
		Profile:     t.profile,
		ResultKey:   t.key,
		Status:      t.status,
		Error:       t.errMsg,
		Unsupported: t.unsupported,
		CacheHit:    t.cacheHit,
		Submitted:   t.submitted.UTC().Format(time.RFC3339Nano),
		ElapsedSec:  t.elapsedSec,
		Evicted:     true,
	}, true
}

// terminated reports whether the job has reached a terminal state.
func (j *Job) terminated() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// Job returns the job with the given ID.
func (s *Scheduler) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns the retained jobs in submission order (the oldest
// terminated jobs are evicted once the index exceeds Options.MaxJobs).
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Job(nil), s.order[s.head:]...)
}

// Stats returns a snapshot of scheduler counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	inflight := len(s.inflight)
	vsecs := s.vsecs
	s.mu.Unlock()
	return Stats{
		Workers:        s.opts.Workers,
		Submitted:      s.submitted.Load(),
		Executed:       s.executed.Load(),
		Failed:         s.failed.Load(),
		Deduped:        s.deduped.Load(),
		CacheHits:      s.cacheHits.Load(),
		InFlight:       inflight,
		Running:        s.running.Load(),
		JournalErrors:  s.journalErrs.Load(),
		VirtualSeconds: vsecs,
	}
}

// Close cancels in-flight work and waits for the workers to exit.
// Queued jobs fail with the cancellation error; Submit afterwards
// returns ErrClosed.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	// Unlocked: Submit enqueues only under s.mu after checking closed,
	// so once the flag is set nothing can send on the queue closed here.
	s.cancel()
	close(s.queue)
	s.wg.Wait()
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.run(j)
	}
}

// run executes one job. On success the result, then its followers'
// entries, are cached before the job leaves the in-flight map, so a
// concurrent identical or following Submit always sees either the
// in-flight job or the cached result — never a gap that would re-run
// the simulation. A failure fails the followers too.
func (s *Scheduler) run(j *Job) {
	j.setRunning()
	s.running.Add(1)
	j.queuedSpan.End()

	execCtx, execSpan := obs.StartSpan(s.execCtx(j), "execute")
	tab, err := j.exp.RunContext(execCtx, j.profile)
	if err != nil {
		execSpan.SetAttr("error", err.Error())
	}
	execSpan.End()
	if err != nil {
		// Leave the in-flight map before signaling completion:
		// failures are not cached, so a resubmit arriving after Done
		// must schedule a fresh run, not join this dead job.
		s.mu.Lock()
		fs := j.followers
		delete(s.inflight, j.key)
		s.mu.Unlock()
		s.failed.Add(1)
		// Not deferred: the gauge drops before finishJob closes Done, or
		// a waiter woken by Done could still count this job as running.
		s.running.Add(-1)
		s.share(j, nil, err, false, fs...)
		s.finishJob(j, nil, err, false)
		return
	}

	s.executed.Add(1)
	s.running.Add(-1) // before any follower's Done closes, as above
	s.put(j, tab, j)
	s.mu.Lock()
	for fs := j.followers; len(fs) > 0; fs = j.followers {
		j.followers = nil
		s.mu.Unlock()
		s.share(j, tab, nil, false, fs...)
		s.mu.Lock()
	}
	s.vsecs += tab.VirtualSeconds()
	delete(s.inflight, j.key)
	s.mu.Unlock()
	s.finishJob(j, tab, nil, false)
}

// Wait blocks until the job terminates or ctx is canceled, returning
// the job's result.
func Wait(ctx context.Context, j *Job) (*core.Table, error) {
	select {
	case <-j.Done():
		return j.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
