package runner

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/results"
)

// The tests register synthetic experiments (IDs prefixed "zz-test-")
// so they stay fast and can count executions exactly. Registration is
// process-global but package tests run in their own process, so this
// does not disturb core's registry-completeness test.

var (
	fakeRuns  atomic.Int64 // executions of zz-test-ok
	slowRuns  atomic.Int64
	registerO sync.Once

	slowGateMu sync.Mutex
	slowGate   chan struct{} // nil = zz-test-slow does not block
)

// setSlowGate installs the channel zz-test-slow blocks on; nil disables
// blocking. Each test owns its own gate so tests stay independent.
func setSlowGate(g chan struct{}) {
	slowGateMu.Lock()
	slowGate = g
	slowGateMu.Unlock()
}

func slowWait() {
	slowGateMu.Lock()
	g := slowGate
	slowGateMu.Unlock()
	if g != nil {
		<-g
	}
}

func registerFakes() {
	registerO.Do(func() {
		core.Register(&core.Experiment{
			ID: "zz-test-ok", Title: "fake ok", Paper: "n/a",
			Run: func(ctx context.Context, p core.Profile) (*core.Table, error) {
				fakeRuns.Add(1)
				time.Sleep(20 * time.Millisecond) // widen the dedup race window
				t := core.NewTable("fake", "virtual s", []string{"r"}, []string{"c"})
				t.Set("r", "c", 42)
				return t, nil
			},
			Check: func(*core.Table) error { return nil },
		})
		core.Register(&core.Experiment{
			ID: "zz-test-fail", Title: "fake fail", Paper: "n/a",
			Run: func(ctx context.Context, p core.Profile) (*core.Table, error) {
				return nil, errors.New("synthetic failure")
			},
			Check: func(*core.Table) error { return nil },
		})
		core.Register(&core.Experiment{
			ID: "zz-test-slow", Title: "fake slow", Paper: "n/a",
			Run: func(ctx context.Context, p core.Profile) (*core.Table, error) {
				slowRuns.Add(1)
				slowWait()
				t := core.NewTable("slow", "virtual s", []string{"r"}, []string{"c"})
				t.Set("r", "c", 1)
				return t, nil
			},
			Check: func(*core.Table) error { return nil },
		})
	})
}

func newTestScheduler(t testing.TB, opts Options) *Scheduler {
	t.Helper()
	registerFakes()
	s := New(opts)
	t.Cleanup(s.Close)
	return s
}

// TestSingleFlight proves the headline dedup property: N concurrent
// identical submissions share one job and the simulation executes
// exactly once.
func TestSingleFlight(t *testing.T) {
	cache, _ := results.Open("")
	s := newTestScheduler(t, Options{Workers: 4, Cache: cache})
	fakeRuns.Store(0)

	const n = 32
	jobs := make([]*Job, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := s.Submit("zz-test-ok", core.Quick())
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()
	for _, j := range jobs {
		if j == nil {
			t.Fatal("missing job")
		}
		if j.id != jobs[0].id {
			t.Fatalf("concurrent identical submits got jobs %s and %s, want one shared job", jobs[0].id, j.id)
		}
	}
	tab, err := Wait(context.Background(), jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if tab.Get("r", "c") != 42 {
		t.Errorf("table cell = %v, want 42", tab.Get("r", "c"))
	}
	if got := fakeRuns.Load(); got != 1 {
		t.Errorf("simulation executed %d times, want exactly 1", got)
	}
	st := s.Stats()
	if st.Executed != 1 || st.Deduped != n-1 {
		t.Errorf("stats = %+v, want executed=1 deduped=%d", st, n-1)
	}
	if st.VirtualSeconds != 42 {
		t.Errorf("virtual seconds = %v, want 42", st.VirtualSeconds)
	}
}

// TestCacheHit proves a later identical submission is served from the
// result cache as an instantly-done job, with no second simulation.
func TestCacheHit(t *testing.T) {
	cache, _ := results.Open("")
	s := newTestScheduler(t, Options{Workers: 2, Cache: cache})
	fakeRuns.Store(0)

	j1, err := s.Submit("zz-test-ok", core.Quick())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Wait(context.Background(), j1); err != nil {
		t.Fatal(err)
	}

	j2, err := s.Submit("zz-test-ok", core.Quick())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j2.Done():
	default:
		t.Fatal("cache-hit job was not done on arrival")
	}
	info := j2.Snapshot()
	if info.Status != StatusDone || !info.CacheHit {
		t.Errorf("snapshot = %+v, want done cache hit", info)
	}
	if j2.id == j1.id {
		t.Error("cache hit should mint a new job, not resurrect the finished one")
	}
	if got := fakeRuns.Load(); got != 1 {
		t.Errorf("simulation executed %d times, want 1", got)
	}
	if st := s.Stats(); st.CacheHits != 1 || st.Executed != 1 {
		t.Errorf("stats = %+v, want cacheHits=1 executed=1", st)
	}
	if tab, err := j2.Result(); err != nil || tab.Get("r", "c") != 42 {
		t.Errorf("cached result = %v, %v", tab, err)
	}
}

func TestFailedJob(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: 1})
	j, err := s.Submit("zz-test-fail", core.Quick())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Wait(context.Background(), j); err == nil {
		t.Fatal("failing experiment reported success")
	}
	info := j.Snapshot()
	if info.Status != StatusFailed || info.Error == "" {
		t.Errorf("snapshot = %+v, want failed with error", info)
	}
	if st := s.Stats(); st.Failed != 1 {
		t.Errorf("stats = %+v, want failed=1", st)
	}

	// Failures are not cached and not deduped against: a resubmit
	// schedules a fresh run.
	j2, err := s.Submit("zz-test-fail", core.Quick())
	if err != nil {
		t.Fatal(err)
	}
	if j2.id == j.id {
		t.Error("resubmit after failure joined the dead job")
	}
	Wait(context.Background(), j2)
}

func TestUnknownExperiment(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: 1})
	if _, err := s.Submit("no-such-experiment", core.Quick()); err == nil {
		t.Fatal("submit of unknown experiment succeeded")
	}
}

func TestJobsAndLookup(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: 2})
	j, err := s.Submit("zz-test-ok", core.Quick())
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s.Job(j.id)
	if !ok || got != j {
		t.Errorf("Job(%s) = %v, %v", j.id, got, ok)
	}
	if _, ok := s.Job("job-999999"); ok {
		t.Error("lookup of unknown job succeeded")
	}
	if jobs := s.Jobs(); len(jobs) != 1 || jobs[0] != j {
		t.Errorf("Jobs() = %v", jobs)
	}
	Wait(context.Background(), j)
}

// TestCloseCancelsQueuedJobs pins the shutdown contract: Close fails
// queued jobs with the cancellation error and later submits are
// rejected with ErrClosed.
func TestCloseCancelsQueuedJobs(t *testing.T) {
	registerFakes()
	gate := make(chan struct{})
	setSlowGate(gate)
	defer setSlowGate(nil)
	s := New(Options{Workers: 1})
	before := slowRuns.Load()
	blocker, err := s.Submit("zz-test-slow", core.Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the blocker occupies the only worker, so the next job
	// is definitely queued, not running.
	for i := 0; slowRuns.Load() == before && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	queued, err := s.Submit("zz-test-ok", core.Quick())
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	<-s.ctx.Done() // cancellation is delivered before the gate opens...
	close(gate)    // ...so the blocker finishes its run already canceled
	<-done

	if _, err := Wait(context.Background(), queued); !errors.Is(err, context.Canceled) {
		t.Errorf("queued job error = %v, want context.Canceled", err)
	}
	// The blocker was mid-run at cancellation; RunContext reports the
	// cancellation once the run returns.
	<-blocker.Done()
	if blocker.Snapshot().Status != StatusFailed {
		t.Errorf("blocker status = %s, want failed", blocker.Snapshot().Status)
	}
	if _, err := s.Submit("zz-test-ok", core.Quick()); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close = %v, want ErrClosed", err)
	}
}

// TestJobEviction proves the retained-job index is bounded: once
// MaxJobs is exceeded, the oldest terminated jobs are dropped while
// their results stay available through the cache.
func TestJobEviction(t *testing.T) {
	cache, _ := results.Open("")
	s := newTestScheduler(t, Options{Workers: 1, MaxJobs: 2, Cache: cache})

	profiles := []core.Profile{core.Quick(), core.Full()}
	third := core.Quick()
	third.NeuroT++ // distinct fingerprint → distinct job
	profiles = append(profiles, third)

	var jobs []*Job
	for _, p := range profiles {
		j, err := s.Submit("zz-test-ok", p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Wait(context.Background(), j); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}

	if _, ok := s.Job(jobs[0].id); ok {
		t.Error("oldest terminated job survived past MaxJobs")
	}
	if _, ok := s.Job(jobs[2].id); !ok {
		t.Error("newest job was evicted")
	}
	if got := s.Jobs(); len(got) != 2 {
		t.Errorf("retained %d jobs, want 2", len(got))
	}
	// The evicted job's result is still served from the cache.
	if _, ok := cache.Peek(jobs[0].key); !ok {
		t.Error("evicted job's result missing from cache")
	}

	// The eviction left a tombstone: a poller that kept the job ID can
	// still learn the terminal state and the result key.
	info, ok := s.EvictedInfo(jobs[0].id)
	if !ok {
		t.Fatal("EvictedInfo: no tombstone for the evicted job")
	}
	if info.Status != StatusDone || !info.Evicted || info.ResultKey != jobs[0].key {
		t.Errorf("EvictedInfo = %+v, want done/evicted with key %s", info, jobs[0].key)
	}
	if info.Experiment != "zz-test-ok" || info.ID != jobs[0].id {
		t.Errorf("EvictedInfo identity = %+v", info)
	}
	// Live jobs have no tombstone.
	if _, ok := s.EvictedInfo(jobs[2].id); ok {
		t.Error("EvictedInfo answered for a retained job")
	}
	if _, ok := s.EvictedInfo("job-does-not-exist"); ok {
		t.Error("EvictedInfo answered for an unknown ID")
	}
}

// TestEvictedFailedJobTombstone: failed jobs have no cached result, but
// their tombstone still answers a late poll with the terminal failure
// instead of pretending the job never existed.
func TestEvictedFailedJobTombstone(t *testing.T) {
	cache, _ := results.Open("")
	s := newTestScheduler(t, Options{Workers: 1, MaxJobs: 1, Cache: cache})

	fail, err := s.Submit("zz-test-fail", core.Quick())
	if err != nil {
		t.Fatal(err)
	}
	<-fail.Done()
	// Push enough terminated jobs through to evict the failed one.
	for _, p := range []core.Profile{core.Quick(), core.Full()} {
		j, err := s.Submit("zz-test-ok", p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Wait(context.Background(), j); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Job(fail.id); ok {
		t.Fatal("failed job not evicted; test setup broken")
	}
	info, ok := s.EvictedInfo(fail.id)
	if !ok {
		t.Fatal("no tombstone for evicted failed job")
	}
	if info.Status != StatusFailed || info.Error == "" || !info.Evicted {
		t.Errorf("EvictedInfo = %+v, want failed with error", info)
	}
}

func TestQueueFull(t *testing.T) {
	registerFakes()
	gate := make(chan struct{})
	setSlowGate(gate)
	defer setSlowGate(nil)
	s := New(Options{Workers: 1, QueueDepth: 1})
	defer func() {
		close(gate)
		s.Close()
	}()
	before := slowRuns.Load()
	if _, err := s.Submit("zz-test-slow", core.Quick()); err != nil {
		t.Fatal(err)
	}
	for i := 0; slowRuns.Load() == before && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	// Worker is blocked; the single queue slot takes one more job...
	if _, err := s.Submit("zz-test-ok", core.Quick()); err != nil {
		t.Fatal(err)
	}
	// ...and a third distinct submission must be rejected, not block.
	if _, err := s.Submit("zz-test-fail", core.Quick()); !errors.Is(err, ErrQueueFull) {
		t.Errorf("overflow submit = %v, want ErrQueueFull", err)
	}
}
