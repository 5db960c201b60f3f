package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/results"
)

// Followers: cells whose experiment ignores the axis they differ in
// share the one run of their canonical profile.

var (
	sharedRuns      atomic.Int64 // executions of zz-test-shared
	sharedFailRuns  atomic.Int64
	registerShared  sync.Once
	sharedFailGate  atomic.Pointer[chan struct{}] // what zz-test-shared-fail blocks on
	errSharedFailed = errors.New("synthetic shared failure")
)

func registerSharedFakes() {
	registerShared.Do(func() {
		core.Register(&core.Experiment{
			ID: "zz-test-shared", Title: "fake node-blind", Paper: "n/a", Ignores: core.AxisNodes,
			Run: func(ctx context.Context, p core.Profile) (*core.Table, error) {
				sharedRuns.Add(1)
				time.Sleep(20 * time.Millisecond) // widen the window for followers to join
				t := core.NewTable("shared", "virtual s", []string{"r"}, []string{"c"})
				t.Set("r", "c", float64(len(p.NeuroSubjects)))
				return t, nil
			},
			Check: func(*core.Table) error { return nil },
		})
		core.Register(&core.Experiment{
			ID: "zz-test-shared-fail", Title: "fake failing node-blind", Paper: "n/a", Ignores: core.AxisNodes,
			Run: func(ctx context.Context, p core.Profile) (*core.Table, error) {
				sharedFailRuns.Add(1)
				<-*sharedFailGate.Load()
				return nil, errSharedFailed
			},
			Check: func(*core.Table) error { return nil },
		})
	})
}

// astroPairs are sweep-astro's seven node points (lo, 17-lo).
func astroPairs() []core.Profile {
	var ps []core.Profile
	for lo := 2; lo <= 8; lo++ {
		ps = append(ps, core.Quick().Apply(core.Overrides{ClusterNodes: []int{lo, 17 - lo}}))
	}
	return ps
}

// wantOwnEntries checks that the cache serves every profile's key an
// entry filed under that key and profile, with the canonical table.
func wantOwnEntries(t *testing.T, cache *results.Cache, id string, ps []core.Profile) {
	t.Helper()
	want, ok := cache.Peek(results.Key(id, core.Quick()))
	if !ok {
		t.Fatal("the canonical entry is not cached")
	}
	wantTab, _ := json.Marshal(want.Table)
	for _, p := range ps {
		e, ok := cache.Peek(results.Key(id, p))
		if !ok {
			t.Errorf("%s: no entry", p.Name)
			continue
		}
		got, _ := json.Marshal(e.Table)
		if e.Profile.Name != p.Name || e.Key != results.Key(id, p) || !bytes.Equal(got, wantTab) {
			t.Errorf("%s: entry filed as %s/%.12s with table %s, want its own profile and %s", p.Name, e.Profile.Name, e.Key, got, wantTab)
		}
	}
}

func TestFollowersShareOneRun(t *testing.T) {
	registerSharedFakes()
	cache, _ := results.Open("")
	s := newTestScheduler(t, Options{Workers: 4, Cache: cache})
	sharedRuns.Store(0)
	ps := astroPairs()

	var wg sync.WaitGroup
	var mu sync.Mutex
	var jobs []*Job
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range ps {
				j, err := s.Submit("zz-test-shared", p)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, j := range jobs {
		if _, err := Wait(context.Background(), j); err != nil {
			t.Fatal(err)
		}
	}
	if n := sharedRuns.Load(); n != 1 {
		t.Fatalf("7 node points of a node-blind experiment executed %d times, want 1", n)
	}
	if st := s.Stats(); st.Executed != 1 {
		t.Errorf("Stats.Executed = %d, want 1", st.Executed)
	}
	wantOwnEntries(t, cache, "zz-test-shared", ps)
}

func TestLateFollowerRunsNothing(t *testing.T) {
	registerSharedFakes()
	cache, _ := results.Open("")
	s := newTestScheduler(t, Options{Workers: 2, Cache: cache})
	sharedRuns.Store(0)
	lead, err := s.Submit("zz-test-shared", core.Quick())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Wait(context.Background(), lead); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	p := astroPairs()[3]
	j, err := s.Submit("zz-test-shared", p)
	if err != nil {
		t.Fatal(err)
	}
	if !j.terminated() || !j.Snapshot().CacheHit {
		t.Fatalf("a follower of a finished run is %+v, want done on arrival as a cache hit", j.Snapshot())
	}
	after := s.Stats()
	if sharedRuns.Load() != 1 || after.Executed != before.Executed || after.CacheHits != before.CacheHits+1 {
		t.Errorf("late follower: runs %d, executed %d→%d, cache hits %d→%d; want nothing run and one hit",
			sharedRuns.Load(), before.Executed, after.Executed, before.CacheHits, after.CacheHits)
	}
	wantOwnEntries(t, cache, "zz-test-shared", []core.Profile{p})
}

// TestFollowerOfACacheHitLeaderSettles puts a follower, between its miss
// on the canonical entry and its search for the canonical job, before a
// canonical job that was served from the cache and is done but not yet
// out of the in-flight map. No run settles such a job's followers, so the
// follower must settle from the cache instead of attaching to it.
func TestFollowerOfACacheHitLeaderSettles(t *testing.T) {
	registerSharedFakes()
	cache := mustCache(t, "")
	s := newTestScheduler(t, Options{Workers: 2, Cache: cache})
	sharedRuns.Store(0)
	e, _ := core.Lookup("zz-test-shared")
	q, ckey := core.Quick(), results.Key("zz-test-shared", core.Quick())
	var hit *Job
	followMissed = func(*Job) {
		if hit != nil {
			return
		}
		cacheResult(t, cache, "zz-test-shared", q)
		entry, _ := cache.Peek(ckey)
		s.mu.Lock()
		hit = s.newJobLocked(e, q, ckey)
		s.inflight[ckey] = hit
		s.mu.Unlock()
		s.finishJob(hit, entry.Table, nil, true)
	}
	t.Cleanup(func() { followMissed = func(*Job) {} })

	p := astroPairs()[0]
	j, err := s.Submit("zz-test-shared", p)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := Wait(ctx, j); err != nil {
		t.Fatalf("follower of a cache-hit leader: %v", err)
	}
	if !j.Snapshot().CacheHit || sharedRuns.Load() != 0 {
		t.Errorf("follower %+v after %d runs, want a cache hit and none", j.Snapshot(), sharedRuns.Load())
	}
	s.mu.Lock()
	delete(s.inflight, ckey)
	s.mu.Unlock()
	wantOwnEntries(t, cache, "zz-test-shared", []core.Profile{p})
}

func TestFailedLeaderFailsFollowers(t *testing.T) {
	registerSharedFakes()
	cache, _ := results.Open("")
	s := newTestScheduler(t, Options{Workers: 2, Cache: cache})
	gate := make(chan struct{})
	sharedFailGate.Store(&gate)
	sharedFailRuns.Store(0)
	var jobs []*Job
	for _, p := range astroPairs()[:3] {
		j, err := s.Submit("zz-test-shared-fail", p)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	close(gate)
	for _, j := range jobs {
		if _, err := Wait(context.Background(), j); !errors.Is(err, errSharedFailed) {
			t.Errorf("%s: err = %v, want the leader's", j.profile.Name, err)
		}
	}
	if n := sharedFailRuns.Load(); n != 1 {
		t.Errorf("executed %d times, want 1", n)
	}
	if keys := cache.Keys(); len(keys) != 0 {
		t.Errorf("a failed run cached %d entries", len(keys))
	}
	if st := s.Stats(); st.Failed != 4 || st.Executed != 0 {
		t.Errorf("Stats = %+v, want 4 failed (3 followers and their leader), none executed", st)
	}
}

// TestFollowersReplayWithoutRerun replays a journal written while the
// followers waited on their leader: onto a cache that holds nothing, the
// leader runs once for all of them; onto one that holds the leader's
// entry (a crash between the leader's write and its followers'), nothing
// runs.
func TestFollowersReplayWithoutRerun(t *testing.T) {
	registerSharedFakes()
	journal, path := openTestJournal(t)
	gate := make(chan struct{})
	setSlowGate(gate)
	defer setSlowGate(nil)
	s := newTestScheduler(t, Options{Workers: 1, Cache: mustCache(t, ""), Journal: journal})
	// The one worker is busy, so the leader and its followers wait.
	if _, err := s.Submit("zz-test-slow", core.Quick()); err != nil {
		t.Fatal(err)
	}
	ps := astroPairs()
	for _, p := range ps {
		if _, err := s.Submit("zz-test-shared", p); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	crashed := filepath.Join(t.TempDir(), "crashed.jsonl")
	if err := os.WriteFile(crashed, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if recs := mustRead(t, crashed); len(recs) != 2+len(ps) {
		t.Fatalf("journal holds %d records, want the slow job, the leader and %d followers", len(recs), len(ps))
	}
	close(gate)
	for _, j := range s.Jobs() {
		Wait(context.Background(), j)
	}

	for _, warm := range []bool{false, true} {
		cache := mustCache(t, t.TempDir())
		if warm {
			cacheResult(t, cache, "zz-test-shared", core.Quick())
		}
		r := newTestScheduler(t, Options{Workers: 2, Cache: cache})
		sharedRuns.Store(0)
		if _, err := Recover(crashed, r); err != nil {
			t.Fatal(err)
		}
		for _, j := range r.Jobs() {
			if _, err := Wait(context.Background(), j); err != nil {
				t.Fatal(err)
			}
		}
		if want := map[bool]int64{false: 1, true: 0}[warm]; sharedRuns.Load() != want {
			t.Errorf("warm=%v: replay executed the shared experiment %d times, want %d", warm, sharedRuns.Load(), want)
		}
		wantOwnEntries(t, cache, "zz-test-shared", ps)
	}
}

func mustCache(t *testing.T, dir string) *results.Cache {
	t.Helper()
	c, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}
