package runner

import (
	"fmt"
	"math/rand"
	"testing"

	"imagebench/internal/core"
	"imagebench/internal/results"
)

// evictModel is the eviction the scheduler made before it read its job
// order from a head index: every submit rebuilt the whole order,
// dropping the oldest terminated jobs until the index was within the
// bound. The scheduler's eviction is held to it.
type evictModel struct {
	max     int
	order   []*Job
	dead    map[*Job]bool // terminated, as the test has seen
	evicted []*Job        // oldest first
}

func (m *evictModel) submit(j *Job) {
	m.order = append(m.order, j)
	n := len(m.order)
	var kept []*Job
	for _, o := range m.order {
		if n > m.max && m.dead[o] {
			n--
			m.evicted = append(m.evicted, o)
			continue
		}
		kept = append(kept, o)
	}
	m.order = kept
}

// check holds s to the model: Jobs() in order, Job(id) for every job
// submitted, EvictedInfo for every evicted one (only the newest 4×max
// keep a tombstone), and the tombstone bound.
func (m *evictModel) check(t *testing.T, s *Scheduler, all []*Job) {
	t.Helper()
	if got := s.Jobs(); fmt.Sprint(jobIDs(got)) != fmt.Sprint(jobIDs(m.order)) {
		t.Fatalf("Jobs() = %v, the rebuilt order is %v", jobIDs(got), jobIDs(m.order))
	}
	retained := make(map[*Job]bool)
	for _, j := range m.order {
		retained[j] = true
	}
	for _, j := range all {
		if _, ok := s.Job(j.id); ok != retained[j] {
			t.Fatalf("Job(%s) found = %v, want %v", j.id, ok, retained[j])
		}
	}
	window := max(0, len(m.evicted)-4*m.max)
	for i, j := range m.evicted {
		info, ok := s.EvictedInfo(j.id)
		if ok != (i >= window) {
			t.Fatalf("EvictedInfo(%s) found = %v, want %v (evicted %d of %d)", j.id, ok, i >= window, i+1, len(m.evicted))
		}
		if ok && (info.ID != j.id || info.Status != StatusDone || info.ResultKey != j.key || !info.Evicted) {
			t.Fatalf("EvictedInfo(%s) = %+v, want done and evicted with key %s", j.id, info, j.key)
		}
	}
	s.mu.Lock()
	tombs := len(s.tombs)
	s.mu.Unlock()
	if want := len(m.evicted) - window; tombs != want || tombs > 4*m.max {
		t.Fatalf("%d tombstones, want %d (bound %d)", tombs, want, 4*m.max)
	}
}

func jobIDs(js []*Job) []string {
	ids := make([]string, len(js))
	for i, j := range js {
		ids[i] = j.id
	}
	return ids
}

// warmCache is a memory cache holding zz-test-ok's quick result, so a
// submit of it is a cache hit, done on arrival.
func warmCache(tb testing.TB) *results.Cache {
	tb.Helper()
	registerFakes()
	cache, _ := results.Open("")
	p := core.Quick()
	tab := core.NewTable("fake", "virtual s", []string{"r"}, []string{"c"})
	if err := cache.Put(&results.Entry{Key: results.Key("zz-test-ok", p), Experiment: "zz-test-ok", Profile: p, Table: tab}); err != nil {
		tb.Fatal(err)
	}
	return cache
}

// heldScheduler is a one-worker scheduler with a warm cache on which
// zz-test-slow jobs stay live until release lets the held jobs it is
// given finish (those still queued run on the opened gate too).
func heldScheduler(t *testing.T, maxJobs int) (*Scheduler, func(held ...*Job)) {
	gate := make(chan struct{})
	setSlowGate(gate)
	s := newTestScheduler(t, Options{Workers: 1, MaxJobs: maxJobs, Cache: warmCache(t)})
	// Runs before s.Close, so that no held job blocks the shutdown.
	t.Cleanup(func() { close(gate); setSlowGate(nil) })
	return s, func(held ...*Job) {
		close(gate)
		for _, j := range held {
			<-j.Done()
		}
		gate = make(chan struct{})
		setSlowGate(gate)
	}
}

func mustSubmit(t testing.TB, s *Scheduler, id string, p core.Profile) *Job {
	t.Helper()
	j, err := s.Submit(id, p)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestEvictionMatchesRebuild drives random interleavings of jobs done
// on arrival (cache hits) and jobs held live, which finish together at
// random points, at MaxJobs 1 to 6, and holds the scheduler to the
// rebuild-the-order model after every step.
func TestEvictionMatchesRebuild(t *testing.T) {
	for maxJobs := 1; maxJobs <= 6; maxJobs++ {
		t.Run(fmt.Sprint("MaxJobs=", maxJobs), func(t *testing.T) {
			s, release := heldScheduler(t, maxJobs)
			rng := rand.New(rand.NewSource(int64(maxJobs)))
			m := &evictModel{max: maxJobs, dead: make(map[*Job]bool)}
			var all, live []*Job
			p := core.Quick()
			for step := 0; step < 200; step++ {
				var j *Job
				switch r := rng.Intn(10); {
				case r < 2:
					release(live...)
					for _, j := range live {
						m.dead[j] = true
					}
					live = nil
				case r < 5:
					p.NeuroT++ // a key of its own: no dedup, no cache hit
					j = mustSubmit(t, s, "zz-test-slow", p)
					live = append(live, j)
					m.submit(j)
				default:
					j = mustSubmit(t, s, "zz-test-ok", core.Quick())
					m.submit(j) // live while it evicts, done on return
					m.dead[j] = true
				}
				if j != nil {
					all = append(all, j)
				}
				m.check(t, s, all)
			}
			if len(m.evicted) < len(all)/2 {
				t.Fatalf("only %d of %d jobs evicted; the walk does not exercise eviction", len(m.evicted), len(all))
			}
		})
	}
}

// TestEvictionPassesLiveHead: a job still live at the head of the index
// keeps its place while later terminated jobs are evicted past it, and
// is the first evicted once it finishes.
func TestEvictionPassesLiveHead(t *testing.T) {
	s, release := heldScheduler(t, 2)
	head := mustSubmit(t, s, "zz-test-slow", core.Full())
	var hits []*Job
	for i := 0; i < 3; i++ {
		hits = append(hits, mustSubmit(t, s, "zz-test-ok", core.Quick()))
	}
	if got, want := fmt.Sprint(jobIDs(s.Jobs())), fmt.Sprint(jobIDs([]*Job{head, hits[2]})); got != want {
		t.Fatalf("Jobs() = %s, want the live head kept and the newest hit: %s", got, want)
	}
	for _, j := range hits[:2] {
		if _, ok := s.EvictedInfo(j.id); !ok {
			t.Errorf("terminated %s behind the live head was not evicted", j.id)
		}
	}
	release(head)
	next := mustSubmit(t, s, "zz-test-ok", core.Quick())
	if got, want := fmt.Sprint(jobIDs(s.Jobs())), fmt.Sprint(jobIDs([]*Job{hits[2], next})); got != want {
		t.Fatalf("Jobs() = %s, want the finished head evicted first: %s", got, want)
	}
	if info, ok := s.EvictedInfo(head.id); !ok || info.Status != StatusDone {
		t.Errorf("EvictedInfo(head) = %+v, %v, want done and evicted", info, ok)
	}
}

// BenchmarkSubmitCacheHit times a cache-hit submit on a scheduler whose
// job index is already past MaxJobs, so that every submit also evicts
// one job: the path a long-lived daemon serving cache hits takes.
func BenchmarkSubmitCacheHit(b *testing.B) {
	for _, maxJobs := range []int{64, 4096} {
		b.Run(fmt.Sprint("MaxJobs=", maxJobs), func(b *testing.B) {
			s := newTestScheduler(b, Options{Workers: 1, MaxJobs: maxJobs, Cache: warmCache(b)})
			for i := 0; i <= maxJobs; i++ {
				mustSubmit(b, s, "zz-test-ok", core.Quick())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustSubmit(b, s, "zz-test-ok", core.Quick())
			}
		})
	}
}
