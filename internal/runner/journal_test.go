package runner

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/results"
)

func openTestJournal(t *testing.T) *FileJournal {
	t.Helper()
	j, err := OpenJournal(filepath.Join(t.TempDir(), "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func TestJournalRoundTrip(t *testing.T) {
	j := openTestJournal(t)
	p := core.Quick()
	recs := []Record{
		{Op: OpSubmit, JobID: "job-1", Key: "k1", Experiment: "fig11", Profile: &p},
		{Op: OpDone, JobID: "job-1", Key: "k1"},
		{Op: OpFail, JobID: "job-2", Key: "k2", Error: "boom"},
	}
	for _, r := range recs {
		if err := j.Record(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadJournal(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		if r.Op != recs[i].Op || r.JobID != recs[i].JobID || r.Key != recs[i].Key {
			t.Errorf("record %d = %+v, want %+v", i, r, recs[i])
		}
		if r.Time == "" {
			t.Errorf("record %d has no timestamp", i)
		}
	}
	if got[0].Profile == nil || got[0].Profile.Name != "quick" {
		t.Errorf("submit record lost the profile: %+v", got[0].Profile)
	}
	if got[2].Error != "boom" {
		t.Errorf("fail record lost the error: %+v", got[2])
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
	j := openTestJournal(t)
	p := core.Quick()
	if err := j.Record(Record{Op: OpSubmit, JobID: "job-1", Key: "k1", Experiment: "fig11", Profile: &p}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(j.Path(), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"time":"2026-01-01T0`) // torn mid-record
	f.Close()

	recs, err := ReadJournal(j.Path())
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if len(recs) != 1 || recs[0].Key != "k1" {
		t.Fatalf("records = %+v, want the one intact record", recs)
	}

	// Now append a valid record after the torn line: the torn line is no
	// longer a crash tail but mid-file corruption, and must be reported.
	f, _ = os.OpenFile(j.Path(), os.O_APPEND|os.O_WRONLY, 0)
	f.WriteString("\n{\"op\":\"done\",\"job\":\"job-1\",\"key\":\"k1\"}\n")
	f.Close()
	if _, err := ReadJournal(j.Path()); err == nil {
		t.Fatal("mid-file corruption went unreported")
	}
}

func TestPendingReplay(t *testing.T) {
	p := core.Quick()
	recs := []Record{
		{Op: OpSubmit, JobID: "job-1", Key: "done-key", Experiment: "a", Profile: &p},
		{Op: OpSubmit, JobID: "job-2", Key: "pending-key", Experiment: "b", Profile: &p},
		{Op: OpSubmit, JobID: "job-3", Key: "failed-key", Experiment: "c", Profile: &p},
		{Op: OpDone, JobID: "job-1", Key: "done-key"},
		{Op: OpFail, JobID: "job-3", Key: "failed-key", Error: "canceled"},
		// A later cache-hit resubmission of the done key, itself completed.
		{Op: OpSubmit, JobID: "job-4", Key: "done-key", Experiment: "a", Profile: &p},
		{Op: OpDone, JobID: "job-4", Key: "done-key", CacheHit: true},
	}
	got := Pending(recs)
	if len(got) != 2 {
		t.Fatalf("pending = %+v, want 2 jobs", got)
	}
	// First-submission order: pending-key before failed-key.
	if got[0].Key != "pending-key" || got[1].Key != "failed-key" {
		t.Errorf("pending order = %s, %s", got[0].Key, got[1].Key)
	}
	if got[0].Experiment != "b" || got[0].Profile.Name != "quick" {
		t.Errorf("pending job lost identity: %+v", got[0])
	}
	if len(Pending(nil)) != 0 {
		t.Error("empty journal has pending jobs")
	}
}

// TestSchedulerJournalsLifecycle proves the scheduler writes submit,
// done, fail, and cache-hit records at the right moments.
func TestSchedulerJournalsLifecycle(t *testing.T) {
	j := openTestJournal(t)
	cache, _ := results.Open("")
	s := newTestScheduler(t, Options{Workers: 1, Cache: cache, Journal: j})

	ok1, err := s.Submit("zz-test-ok", core.Quick())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Wait(context.Background(), ok1); err != nil {
		t.Fatal(err)
	}
	fail, err := s.Submit("zz-test-fail", core.Quick())
	if err != nil {
		t.Fatal(err)
	}
	Wait(context.Background(), fail)
	hit, err := s.Submit("zz-test-ok", core.Quick()) // cache hit
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Snapshot().CacheHit {
		t.Fatal("third submit was not a cache hit")
	}

	recs, err := ReadJournal(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	var ops []Op
	for _, r := range recs {
		ops = append(ops, r.Op)
	}
	want := []Op{OpSubmit, OpDone, OpSubmit, OpFail, OpSubmit, OpDone}
	if len(ops) != len(want) {
		t.Fatalf("journal ops = %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("journal ops = %v, want %v", ops, want)
		}
	}
	if !recs[5].CacheHit {
		t.Error("cache-hit completion not marked in journal")
	}
	if recs[0].Profile == nil {
		t.Error("submit record missing profile")
	}
	if s.Stats().JournalErrors != 0 {
		t.Errorf("journal errors = %d", s.Stats().JournalErrors)
	}

	// Everything completed: nothing pending except the failure.
	pending := Pending(recs)
	if len(pending) != 1 || pending[0].Experiment != "zz-test-fail" {
		t.Errorf("pending after clean run = %+v, want just the failed job", pending)
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

// TestQueueFullIsJournaledAsRetryable pins the shed-load contract: a
// submission rejected by a full queue leaves submit+fail in the
// journal, so the shed job is retried at the next recovery.
func TestQueueFullIsJournaledAsRetryable(t *testing.T) {
	j := openTestJournal(t)
	registerFakes()
	gate := make(chan struct{})
	setSlowGate(gate)
	defer setSlowGate(nil)
	s := New(Options{Workers: 1, QueueDepth: 1, Journal: j})
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
	if _, err := s.Submit("zz-test-ok", core.Quick()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("zz-test-fail", core.Quick()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit = %v, want ErrQueueFull", err)
	}
	recs, err := ReadJournal(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	var sawFail bool
	for _, r := range recs {
		if r.Op == OpFail && r.Error == ErrQueueFull.Error() {
			sawFail = true
		}
	}
	if !sawFail {
		t.Fatalf("no queue-full fail record in journal: %+v", recs)
	}
	// The shed job stays pending, so recovery would retry it.
	var found bool
	for _, p := range Pending(recs) {
		if p.Experiment == "zz-test-fail" {
			found = true
		}
	}
	if !found {
		t.Error("shed job not pending after replay")
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

// TestCompactJournal pins the startup-compaction contract: completed
// history is dropped, only the first submit of each pending key
// survives, and replaying the compacted file yields the same pending
// set.
func TestCompactJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Quick()
	for _, r := range []Record{
		{Op: OpSubmit, JobID: "job-1", Key: "done-key", Experiment: "a", Profile: &p},
		{Op: OpDone, JobID: "job-1", Key: "done-key"},
		{Op: OpSubmit, JobID: "job-2", Key: "pend-key", Experiment: "b", Profile: &p},
		{Op: OpSubmit, JobID: "job-3", Key: "fail-key", Experiment: "c", Profile: &p},
		{Op: OpFail, JobID: "job-3", Key: "fail-key", Error: "boom"},
	} {
		if err := j.Record(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	before := Pending(mustRead(t, path))
	kept, err := CompactJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if kept != 2 {
		t.Fatalf("kept %d records, want 2 (pend-key, fail-key)", kept)
	}
	recs := mustRead(t, path)
	if len(recs) != 2 {
		t.Fatalf("compacted journal has %d records, want 2: %+v", len(recs), recs)
	}
	for _, r := range recs {
		if r.Op != OpSubmit || r.Profile == nil {
			t.Errorf("compacted record not a replayable submit: %+v", r)
		}
	}
	after := Pending(recs)
	if len(after) != len(before) {
		t.Fatalf("pending set changed by compaction: %v vs %v", after, before)
	}
	for i := range after {
		if after[i].Key != before[i].Key {
			t.Errorf("pending[%d] = %s, want %s", i, after[i].Key, before[i].Key)
		}
	}

	// Compacting a missing journal is a no-op.
	if kept, err := CompactJournal(filepath.Join(t.TempDir(), "none.jsonl")); err != nil || kept != 0 {
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

// TestFailedWriteThroughJournalsAsPending pins the durability contract
// behind OpDone: a job whose result could not be written through to the
// disk cache is journaled as a failure, so recovery re-runs it instead
// of retiring a key whose table would 404 after restart.
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
	key := results.Key("zz-test-ok", core.Quick())
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	j := openTestJournal(t)
	s := newTestScheduler(t, Options{Workers: 1, Cache: cache, Journal: j})
	job, err := s.Submit("zz-test-ok", core.Quick())
	if err != nil {
		t.Fatal(err)
	}
	// The job still succeeds for this process...
	if _, err := Wait(context.Background(), job); err != nil {
		t.Fatalf("job failed outright: %v", err)
	}
	// ...but the journal keeps it pending for the next recovery.
	recs := mustRead(t, j.Path())
	last := recs[len(recs)-1]
	if last.Op != OpFail || last.Key != key {
		t.Fatalf("last record = %+v, want OpFail for the write-through failure", last)
	}
	pending := Pending(recs)
	if len(pending) != 1 || pending[0].Key != key {
		t.Fatalf("pending = %+v, want the write-through-failed job", pending)
	}
}
