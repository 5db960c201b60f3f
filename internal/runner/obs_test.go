package runner

import (
	"strings"
	"sync"
	"testing"

	"imagebench/internal/core"
	"imagebench/internal/obs"
)

// TestJobSpansConcurrent submits distinct jobs from many goroutines
// under a shared tracer and verifies every executed job produced a
// root span with nested queued and execute children. Run under -race
// in CI, this is also the data-race assertion for the obs plumbing.
func TestJobSpansConcurrent(t *testing.T) {
	registerFakes()
	tracer := obs.NewTracer()
	reg := obs.NewRegistry()
	s := newTestScheduler(t, Options{Workers: 4, Tracer: tracer, Metrics: reg})

	const n = 8
	var wg sync.WaitGroup
	jobs := make([]*Job, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct profiles so the submissions are not deduplicated.
			p := core.Quick()
			p.NeuroSubjects = []int{i + 1}
			j, err := s.Submit("zz-test-ok", p)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()
	for _, j := range jobs {
		if j != nil {
			<-j.Done()
		}
	}

	byParent := make(map[uint64][]string)
	roots := 0
	for _, sp := range tracer.Spans() {
		if sp.ParentID == 0 {
			if strings.HasPrefix(sp.Name, "job ") {
				roots++
			}
			continue
		}
		byParent[sp.ParentID] = append(byParent[sp.ParentID], sp.Name)
	}
	if roots != n {
		t.Errorf("got %d job root spans, want %d", roots, n)
	}
	for _, sp := range tracer.Spans() {
		if sp.ParentID != 0 || !strings.HasPrefix(sp.Name, "job ") {
			continue
		}
		kids := byParent[sp.ID]
		for _, want := range []string{"queued", "execute"} {
			found := false
			for _, k := range kids {
				if k == want {
					found = true
				}
			}
			if !found {
				t.Errorf("job span %d missing %q child (has %v)", sp.ID, want, kids)
			}
		}
	}

	// The latency histogram saw every terminal job.
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"imagebench_job_latency_seconds_count 8",
		"imagebench_jobs_submitted_total 8",
		"imagebench_jobs_executed_total 8",
		`imagebench_job_latency_seconds_bucket{le="+Inf"} 8`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, text)
		}
	}
}

// TestSubmitWithContextParentsUnderSpan checks that a caller-supplied
// span context (the sweep root) becomes the job span's parent, while a
// plain Submit produces a root-level job span.
func TestSubmitWithContextParentsUnderSpan(t *testing.T) {
	registerFakes()
	tracer := obs.NewTracer()
	s := newTestScheduler(t, Options{Workers: 2, Tracer: tracer})

	ctx, root := obs.StartSpan(s.ObsContext(), "sweep")
	p := core.Quick()
	p.NeuroSubjects = []int{99}
	j, err := s.SubmitWithContext(ctx, "zz-test-ok", p)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	root.End()

	var jobSpan *obs.Span
	for _, sp := range tracer.Spans() {
		if strings.HasPrefix(sp.Name, "job ") {
			jobSpan = sp
		}
	}
	if jobSpan == nil {
		t.Fatal("no job span recorded")
	}
	if jobSpan.ParentID != root.ID {
		t.Errorf("job span parent = %d, want sweep root %d", jobSpan.ParentID, root.ID)
	}
	if jobSpan.RootID != root.ID {
		t.Errorf("job span root = %d, want %d", jobSpan.RootID, root.ID)
	}
}

// TestDoneIsPublishedLast is the regression for finishJob's ordering:
// the instant Done closes, a waiter must already find its own job in
// the tracer, the latency histogram, and the running gauge. Looped
// because the window is a few instructions wide.
func TestDoneIsPublishedLast(t *testing.T) {
	tracer := obs.NewTracer()
	s := newTestScheduler(t, Options{Workers: 2, Tracer: tracer, Metrics: obs.NewRegistry()})
	for i := 1; i <= 300; i++ {
		// Failures are neither cached nor deduplicated once finished,
		// so every iteration is a fresh, instant run.
		j, err := s.Submit("zz-test-fail", core.Quick())
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		found := false
		for _, sp := range tracer.Spans() {
			if id, _ := sp.Attr("job"); id == j.ID() {
				found = true
			}
		}
		if !found {
			t.Fatalf("iteration %d: Done closed before the job span ended", i)
		}
		if n := s.jobLatency.Snapshot().Count; n != uint64(i) {
			t.Fatalf("iteration %d: latency histogram holds %d observations at Done", i, n)
		}
		if st := s.Stats(); st.Running != 0 || st.InFlight != 0 {
			t.Fatalf("iteration %d: running=%d inFlight=%d at Done, want 0 and 0", i, st.Running, st.InFlight)
		}
	}
}
