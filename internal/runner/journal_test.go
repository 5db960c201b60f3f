package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/results"
)

func openTestJournal(t *testing.T) (*FileJournal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, path
}

// nodes is the quick profile on an n-node cluster: a distinct result key
// per n for the same experiment.
func nodes(n int) core.Profile {
	p := core.Quick()
	p.ClusterNodes = []int{n}
	return p
}

// cacheResult files a table for (experiment, p) in cache, as a finished
// run would.
func cacheResult(t *testing.T, cache *results.Cache, experiment string, p core.Profile) {
	t.Helper()
	tab := core.NewTable("fake", "virtual s", []string{"r"}, []string{"c"})
	tab.Set("r", "c", 42)
	if err := cache.Put(&results.Entry{Key: results.Key(experiment, p), Experiment: experiment, Profile: p, Table: tab}); err != nil {
		t.Fatal(err)
	}
}

// recoverInto replays the journal at path onto a fresh scheduler over
// cache, as a restarted daemon does, and waits for every job it
// resubmitted; it returns those jobs in resubmission order.
func recoverInto(t *testing.T, path string, cache *results.Cache) []*Job {
	t.Helper()
	s := newTestScheduler(t, Options{Workers: 1, Cache: cache})
	n, err := Recover(path, s)
	if err != nil {
		t.Fatal(err)
	}
	jobs := s.Jobs()
	if n != len(jobs) {
		t.Fatalf("Recover reported %d resubmissions, the scheduler holds %d jobs", n, len(jobs))
	}
	for _, j := range jobs {
		Wait(context.Background(), j)
	}
	return jobs
}

func experiments(jobs []*Job) string {
	var ids []string
	for _, j := range jobs {
		ids = append(ids, j.exp.ID)
	}
	return strings.Join(ids, ",")
}

func TestJournalRoundTrip(t *testing.T) {
	j, jpath := openTestJournal(t)
	p := core.Quick()
	recs := []Record{
		{Time: "2026-01-01T00:00:00Z", Op: OpSubmit, JobID: "job-1", Key: "k1", Experiment: "fig11", Profile: &p},
		{Op: OpSubmit, JobID: "job-2", Key: "k2", Experiment: "fig12a", Profile: &p},
	}
	for _, r := range recs {
		if err := j.Record(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		if r.Time != recs[i].Time || r.Op != recs[i].Op || r.JobID != recs[i].JobID || r.Key != recs[i].Key || r.Experiment != recs[i].Experiment {
			t.Errorf("record %d = %+v, want %+v", i, r, recs[i])
		}
		if r.Profile == nil || r.Profile.Name != "quick" {
			t.Errorf("record %d lost the profile: %+v", i, r.Profile)
		}
	}
}

func TestJournalMissingFileIsEmpty(t *testing.T) {
	recs, err := ReadJournal(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil || recs != nil {
		t.Fatalf("missing journal = %v, %v; want empty, nil", recs, err)
	}
}

// TestJournalTornTail pins the crash model: a partial final line (the
// only corruption a single-write append can produce) is skipped, while
// corruption before intact records is reported.
func TestJournalTornTail(t *testing.T) {
	j, jpath := openTestJournal(t)
	p := core.Quick()
	if err := j.Record(Record{Op: OpSubmit, JobID: "job-1", Key: "k1", Experiment: "fig11", Profile: &p}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"time":"2026-01-01T0`) // torn mid-record
	f.Close()

	recs, err := ReadJournal(jpath)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if len(recs) != 1 || recs[0].Key != "k1" {
		t.Fatalf("records = %+v, want the one intact record", recs)
	}

	// Now append a valid record after the torn line: the torn line is no
	// longer a crash tail but mid-file corruption, and must be reported.
	f, _ = os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0)
	f.WriteString("\n{\"op\":\"done\",\"job\":\"job-1\",\"key\":\"k1\"}\n")
	f.Close()
	if _, err := ReadJournal(jpath); err == nil {
		t.Fatal("mid-file corruption went unreported")
	}
}

// TestPendingReplay pins replay: each journaled key whose result the
// cache lacks is resubmitted once, in first-submission order; a cached
// key and a submit that names no experiment or profile are skipped.
func TestPendingReplay(t *testing.T) {
	registerFakes()
	j, jpath := openTestJournal(t)
	cache, _ := results.Open("")
	cacheResult(t, cache, "zz-test-ok", core.Quick())
	p := core.Quick()
	for _, r := range []Record{
		{Op: OpSubmit, JobID: "job-1", Key: results.Key("zz-test-ok", p), Experiment: "zz-test-ok", Profile: &p},
		{Op: OpSubmit, JobID: "job-2", Key: results.Key("zz-test-fail", p), Experiment: "zz-test-fail", Profile: &p},
		{Op: OpSubmit, JobID: "job-3", Key: "unreplayable"},
		{Op: OpSubmit, JobID: "job-4", Key: results.Key("zz-test-slow", p), Experiment: "zz-test-slow", Profile: &p},
		{Op: OpSubmit, JobID: "job-5", Key: results.Key("zz-test-fail", p), Experiment: "zz-test-fail", Profile: &p},
	} {
		if err := j.Record(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := experiments(recoverInto(t, jpath, cache)); got != "zz-test-fail,zz-test-slow" {
		t.Errorf("recovered %q, want zz-test-fail,zz-test-slow", got)
	}
	if got := unfinished(nil, cache); len(got) != 0 {
		t.Errorf("empty journal replays %+v", got)
	}
}

// TestSchedulerJournalsLifecycle proves the scheduler journals a
// stamped submit for every job that has to run, succeeded or failed,
// and nothing for a cache hit; replay over the same cache then re-runs
// only the failure.
func TestSchedulerJournalsLifecycle(t *testing.T) {
	j, jpath := openTestJournal(t)
	cache, _ := results.Open("")
	s := newTestScheduler(t, Options{Workers: 1, Cache: cache, Journal: j})

	for _, id := range []string{"zz-test-ok", "zz-test-fail"} {
		job, err := s.Submit(id, core.Quick())
		if err != nil {
			t.Fatal(err)
		}
		Wait(context.Background(), job)
	}
	hit, err := s.Submit("zz-test-ok", core.Quick())
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Snapshot().CacheHit {
		t.Fatal("third submit was not a cache hit")
	}

	recs, err := ReadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Experiment != "zz-test-ok" || recs[1].Experiment != "zz-test-fail" {
		t.Fatalf("journal = %+v, want one submit each for zz-test-ok and zz-test-fail", recs)
	}
	for _, r := range recs {
		if r.Op != OpSubmit || r.Profile == nil || r.Key != results.Key(r.Experiment, *r.Profile) {
			t.Errorf("record %+v is not a replayable submit", r)
		}
		if _, err := time.Parse(time.RFC3339Nano, r.Time); err != nil {
			t.Errorf("record %+v has no time stamp: %v", r, err)
		}
	}
	if s.Stats().JournalErrors != 0 {
		t.Errorf("journal errors = %d", s.Stats().JournalErrors)
	}
	if got := experiments(recoverInto(t, jpath, cache)); got != "zz-test-fail" {
		t.Errorf("recovered %q after a clean run, want just the failed job", got)
	}
}

// TestRecoverResubmitsPendingOnly is the crash-recovery contract: after
// a simulated crash, Recover re-runs exactly the unfinished jobs, and
// completed jobs come back as cache hits without re-executing.
func TestRecoverResubmitsPendingOnly(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.jsonl")
	cacheDir := filepath.Join(dir, "cache")

	// "Process one": run zz-test-ok to completion, accept zz-test-slow
	// but crash (abandon the scheduler) before it finishes.
	registerFakes()
	fakeRuns.Store(0)
	j1, err := OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	cache1, err := results.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	setSlowGate(gate)
	defer setSlowGate(nil)
	s1 := New(Options{Workers: 1, Cache: cache1, Journal: j1})
	done, err := s1.Submit("zz-test-ok", core.Quick())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Wait(context.Background(), done); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Submit("zz-test-slow", core.Quick()); err != nil {
		t.Fatal(err)
	}
	// Crash: close the scheduler while the slow job blocks. Cancellation
	// reaches the run before the gate opens, so the job journals a fail —
	// which replay treats as pending.
	closed := make(chan struct{})
	go func() { s1.Close(); close(closed) }()
	<-s1.ctx.Done()
	close(gate)
	<-closed
	j1.Close()

	// "Process two": fresh cache view, journal, scheduler on the same dirs.
	slowRuns.Store(0)
	fakeRuns.Store(0)
	cache2, err := results.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	s2 := New(Options{Workers: 2, Cache: cache2, Journal: j2})
	defer s2.Close()
	n, err := Recover(journalPath, s2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d jobs, want 1 (the unfinished slow job)", n)
	}
	for _, job := range s2.Jobs() {
		if _, err := Wait(context.Background(), job); err != nil {
			t.Fatal(err)
		}
	}
	if got := slowRuns.Load(); got != 1 {
		t.Errorf("pending job re-executed %d times after recovery, want 1", got)
	}
	if got := fakeRuns.Load(); got != 0 {
		t.Errorf("completed job re-executed %d times after recovery, want 0", got)
	}

	// A client re-requesting the completed job gets a cache hit from disk.
	hit, err := s2.Submit("zz-test-ok", core.Quick())
	if err != nil {
		t.Fatal(err)
	}
	if info := hit.Snapshot(); !info.CacheHit || info.Status != StatusDone {
		t.Errorf("completed job after restart = %+v, want instant cache hit", info)
	}
	if got := fakeRuns.Load(); got != 0 {
		t.Errorf("completed job re-executed after restart")
	}
}

// TestQueueFullIsJournaledAsRetryable pins the shed-load contract: a submission
// rejected by a full queue keeps its journaled submit, so the next
// recovery retries it, while the jobs that ran are served by the cache.
func TestQueueFullIsJournaledAsRetryable(t *testing.T) {
	j, jpath := openTestJournal(t)
	registerFakes()
	cache, _ := results.Open("")
	gate := make(chan struct{})
	setSlowGate(gate)
	defer setSlowGate(nil)
	s := New(Options{Workers: 1, QueueDepth: 1, Cache: cache, Journal: j})
	before := slowRuns.Load()
	slow, err := s.Submit("zz-test-slow", core.Quick())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; slowRuns.Load() == before && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	ok, err := s.Submit("zz-test-ok", core.Quick())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("zz-test-fail", core.Quick()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit = %v, want ErrQueueFull", err)
	}
	close(gate)
	for _, job := range []*Job{slow, ok} {
		if _, err := Wait(context.Background(), job); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	if got := experiments(recoverInto(t, jpath, cache)); got != "zz-test-fail" {
		t.Errorf("recovered %q, want just the shed job", got)
	}
}

// TestReopenTruncatesTornTail pins the reopen contract: OpenJournal
// drops a torn trailing fragment, so records appended by the next
// process start on their own line and every later recovery still
// parses the journal cleanly.
func TestReopenTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Quick()
	if err := j1.Record(Record{Op: OpSubmit, JobID: "job-1", Key: "k1", Experiment: "fig11", Profile: &p}); err != nil {
		t.Fatal(err)
	}
	j1.Close()
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	f.WriteString(`{"time":"2026-01-01T0`) // crash mid-record
	f.Close()

	// "Restart": reopen and append as the recovering process would.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Record(Record{Op: OpSubmit, JobID: "job-2", Key: "k2", Experiment: "fig11", Profile: &p}); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	recs, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("journal corrupted by reopen-after-crash: %v", err)
	}
	if len(recs) != 2 || recs[0].Key != "k1" || recs[1].Key != "k2" {
		t.Fatalf("records = %+v, want k1 then k2", recs)
	}
}

// TestJournalRejectsMultipleBadLines pins the corruption bound: only a
// single trailing torn line is tolerated.
func TestJournalRejectsMultipleBadLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	content := `{"op":"submit","job":"job-1","key":"k1"}` + "\n{bad one}\n{bad two}"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(path); err == nil {
		t.Fatal("two malformed lines went unreported")
	}
}

// TestCompactJournal pins the startup-compaction contract: submits the
// cache has results for are dropped, only the first submit of each
// other key survives, and replaying the compacted file resubmits what
// replaying the original did.
func TestCompactJournal(t *testing.T) {
	registerFakes()
	j, path := openTestJournal(t)
	cache, _ := results.Open("")
	cacheResult(t, cache, "zz-test-ok", nodes(1))
	for i, n := range []int{1, 2, 3, 2} {
		p := nodes(n)
		r := Record{Op: OpSubmit, JobID: fmt.Sprint("job-", i), Key: results.Key("zz-test-ok", p), Experiment: "zz-test-ok", Profile: &p}
		if err := j.Record(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	before := unfinished(mustRead(t, path), cache)
	kept, err := CompactJournal(path, cache)
	if err != nil {
		t.Fatal(err)
	}
	if kept != 2 {
		t.Fatalf("kept %d records, want 2 (the 2- and 3-node runs)", kept)
	}
	recs := mustRead(t, path)
	if len(recs) != 2 || recs[0].JobID != "job-1" || recs[1].JobID != "job-2" {
		t.Fatalf("compacted journal = %+v, want the first submits of the uncached keys", recs)
	}
	after := unfinished(recs, cache)
	if len(after) != len(before) {
		t.Fatalf("replay changed by compaction: %v vs %v", after, before)
	}
	for i := range after {
		if after[i].Key != before[i].Key {
			t.Errorf("replay[%d] = %s, want %s", i, after[i].Key, before[i].Key)
		}
	}

	// Compacting a missing journal is a no-op.
	if kept, err := CompactJournal(filepath.Join(t.TempDir(), "none.jsonl"), cache); err != nil || kept != 0 {
		t.Errorf("compact of missing journal = %d, %v", kept, err)
	}
}

func mustRead(t *testing.T, path string) []Record {
	t.Helper()
	recs, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestOldJournalReplays pins compatibility with journals that also
// recorded completion: their done and fail lines parse and are
// ignored, so over a disk cache recovery resubmits exactly the keys the
// cache lacks, and compaction keeps exactly their first submits.
func TestOldJournalReplays(t *testing.T) {
	registerFakes()
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	cacheDir := filepath.Join(dir, "cache")
	cache, err := results.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	key := func(n int) string { return results.Key("zz-test-ok", nodes(n)) }
	submit := func(job string, n int) string {
		p, err := json.Marshal(nodes(n))
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf(`{"time":"2026-01-01T00:00:00Z","op":"submit","job":%q,"key":%q,"experiment":"zz-test-ok","profile":%s}`, job, key(n), p)
	}
	// 1 ran and finished, 2 failed, 3 was a cache hit, 4 ran but its
	// write-through failed; the cache holds 1 and 3.
	lines := []string{
		submit("job-1", 1),
		fmt.Sprintf(`{"time":"2026-01-01T00:00:01Z","op":"done","job":"job-1","key":%q}`, key(1)),
		submit("job-2", 2),
		fmt.Sprintf(`{"time":"2026-01-01T00:00:02Z","op":"fail","job":"job-2","key":%q,"error":"context canceled"}`, key(2)),
		submit("job-3", 3),
		fmt.Sprintf(`{"time":"2026-01-01T00:00:03Z","op":"done","job":"job-3","key":%q,"cacheHit":true}`, key(3)),
		submit("job-4", 4),
		fmt.Sprintf(`{"time":"2026-01-01T00:00:04Z","op":"fail","job":"job-4","key":%q,"error":"completed, but cache write-through failed: disk full"}`, key(4)),
	}
	compacted := filepath.Join(dir, "compacted.jsonl")
	for _, p := range []string{path, compacted} {
		if err := os.WriteFile(p, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cacheResult(t, cache, "zz-test-ok", nodes(1))
	cacheResult(t, cache, "zz-test-ok", nodes(3))
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	restarted := func() *results.Cache {
		c, err := results.Open(cacheDir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	if kept, err := CompactJournal(compacted, restarted()); err != nil || kept != 2 {
		t.Fatalf("compaction kept %d (%v), want 2", kept, err)
	}
	recs := mustRead(t, compacted)
	if len(recs) != 2 || recs[0].JobID != "job-2" || recs[1].JobID != "job-4" {
		t.Errorf("compacted journal = %+v, want the submits of job-2 and job-4", recs)
	}

	fakeRuns.Store(0)
	var got []string
	for _, job := range recoverInto(t, path, restarted()) {
		got = append(got, job.key)
	}
	if want := []string{key(2), key(4)}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("recovery resubmitted %v, want the 2- and 4-node keys %v", got, want)
	}
	if n := fakeRuns.Load(); n != 2 {
		t.Errorf("recovery ran %d jobs, want 2", n)
	}
}

// TestFailedWriteThroughJournalsAsPending pins the durability contract
// behind replay: a job whose result could not be written through to
// the disk cache succeeds for this process, and a restarted one, whose
// cache lacks the result, re-runs it exactly once.
func TestFailedWriteThroughJournalsAsPending(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	cache, err := results.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	// Make the write-through fail deterministically: the cache's log is
	// closed under it, so the append fails while the in-memory entry
	// still stores.
	registerFakes()
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	j, jpath := openTestJournal(t)
	s := newTestScheduler(t, Options{Workers: 1, Cache: cache, Journal: j})
	job, err := s.Submit("zz-test-ok", core.Quick())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Wait(context.Background(), job); err != nil {
		t.Fatalf("job failed outright: %v", err)
	}

	fakeRuns.Store(0)
	restarted, err := results.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if got := experiments(recoverInto(t, jpath, restarted)); got != "zz-test-ok" {
		t.Fatalf("recovered %q, want the write-through-failed job", got)
	}
	if n := fakeRuns.Load(); n != 1 {
		t.Errorf("recovery ran the job %d times, want once", n)
	}
}

// TestMemoryCacheRestartReRunsEverything pins what a journal without a
// disk cache gives: the restarted cache holds no results, so every
// journaled job runs again, finished or not.
func TestMemoryCacheRestartReRunsEverything(t *testing.T) {
	j, jpath := openTestJournal(t)
	cache, _ := results.Open("")
	s := newTestScheduler(t, Options{Workers: 1, Cache: cache, Journal: j})
	for _, n := range []int{1, 2} {
		job, err := s.Submit("zz-test-ok", nodes(n))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Wait(context.Background(), job); err != nil {
			t.Fatal(err)
		}
	}

	fakeRuns.Store(0)
	restarted, _ := results.Open("")
	if got := experiments(recoverInto(t, jpath, restarted)); got != "zz-test-ok,zz-test-ok" {
		t.Errorf("recovered %q, want both finished jobs", got)
	}
	if n := fakeRuns.Load(); n != 2 {
		t.Errorf("recovery ran %d jobs, want 2", n)
	}
}
