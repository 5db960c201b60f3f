package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"imagebench/internal/vtime"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fakeClock is a deterministic wall clock stepping 1ms per reading.
func fakeClock() func() time.Time {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

func TestStartSpanWithoutTracer(t *testing.T) {
	ctx := context.Background()
	ctx2, s := StartSpan(ctx, "noop")
	if s != nil {
		t.Fatal("StartSpan without tracer returned a span")
	}
	if ctx2 != ctx {
		t.Fatal("StartSpan without tracer changed the context")
	}
	// Every method must be a nil-receiver no-op.
	s.SetAttr("k", "v")
	s.SetVirtual(0, 0)
	s.SetVirtualOnly()
	s.AddEvent("e")
	s.AddVirtualEvent("e", 0)
	s.End()
}

func TestSpanNesting(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)

	ctx, root := StartSpan(ctx, "root")
	cctx, child := StartSpan(ctx, "child")
	_, grand := StartSpan(cctx, "grandchild")
	grand.End()
	child.End()
	root.End()

	if child.ParentID != root.ID || grand.ParentID != child.ID {
		t.Errorf("parent chain broken: root=%d child.parent=%d grand.parent=%d",
			root.ID, child.ParentID, grand.ParentID)
	}
	if root.RootID != root.ID || child.RootID != root.ID || grand.RootID != root.ID {
		t.Errorf("RootID not propagated: %d %d %d", root.RootID, child.RootID, grand.RootID)
	}
	if got := len(tr.Spans()); got != 3 {
		t.Errorf("tracer holds %d spans, want 3", got)
	}
}

// TestConcurrentSpans drives many goroutines through one tracer; the
// -race CI step is the real assertion here.
func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	base := WithTracer(context.Background(), tr)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, s := StartSpan(base, "work")
				s.SetAttr("k", "v")
				s.AddEvent("tick")
				_, c := StartSpan(ctx, "inner")
				c.SetVirtual(0, vtime.Time(time.Second))
				c.End()
				s.End()
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 8*50*2 {
		t.Errorf("tracer holds %d spans, want %d", got, 8*50*2)
	}
	ids := make(map[uint64]bool)
	for _, s := range tr.Spans() {
		if ids[s.ID] {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		ids[s.ID] = true
	}
}

// TestGoldenChromeTrace pins the exporter's byte-exact output for a
// deterministic span tree covering both clocks, virtual-only stage
// spans, and instant events.
func TestGoldenChromeTrace(t *testing.T) {
	tr := NewTracer()
	tr.SetClock(fakeClock())
	ctx := WithTracer(context.Background(), tr)

	ctx, job := StartSpan(ctx, "job ftneuro")
	job.SetAttr("experiment", "ftneuro")
	ectx, exec := StartSpan(ctx, "execute")

	_, run := StartSpan(ectx, "Spark neuro")
	run.SetAttr("engine", "Spark")
	run.SetVirtual(0, vtime.Time(90*time.Second))
	rctx := ContextWithSpan(ectx, run)

	_, stage := StartSpan(rctx, "ingest")
	stage.SetAttr("kind", "stage")
	stage.SetVirtual(0, vtime.Time(30*time.Second))
	stage.SetVirtualOnly()
	stage.End()

	_, stage2 := StartSpan(rctx, "fit")
	stage2.SetAttr("kind", "stage")
	stage2.SetVirtual(vtime.Time(30*time.Second), vtime.Time(90*time.Second))
	stage2.SetVirtualOnly()
	stage2.End()

	run.AddVirtualEvent("kill", vtime.Time(45*time.Second), Attr{Key: "node", Value: "1"})
	run.End()
	exec.End()
	job.AddEvent("cache-write")
	job.End()

	var got bytes.Buffer
	if err := tr.WriteChromeTrace(&got); err != nil {
		t.Fatal(err)
	}

	// The trace must be valid JSON with the dual-clock process metadata.
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(got.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}

	golden := filepath.Join("testdata", "chrome_trace.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("chrome trace drifted from %s (run with -update if intentional)\ngot:\n%s", golden, got.String())
	}
}

// TestChromeTraceLanesAndOrder builds the span tree of a fanned-out
// experiment — three cells under one parent, two of them overlapping on
// the wall clock — ending the spans in two different orders: a cell
// that starts before an earlier sibling has ended gets a lane of its
// own (its span ID as tid) and takes its subtree along, the others stay
// in the parent's lane, and the two exports are the same bytes.
func TestChromeTraceLanesAndOrder(t *testing.T) {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	export := func(endOrder []string) ([]byte, map[string]uint64) {
		var now time.Time
		tr := NewTracer()
		tr.SetClock(func() time.Time { return now })
		start := func(ctx context.Context, name string, ms int) (context.Context, *Span) {
			now = at(ms)
			return StartSpan(ctx, name)
		}
		spans, ends := map[string]*Span{}, map[string]int{"exp": 100, "cell A": 50, "cell B": 60, "inner B": 30, "cell C": 80}
		ctx, exp := start(WithTracer(context.Background(), tr), "exp", 0)
		_, a := start(ctx, "cell A", 10)
		bctx, b := start(ctx, "cell B", 20)
		_, inner := start(bctx, "inner B", 25)
		_, c := start(ctx, "cell C", 70)
		spans["exp"], spans["cell A"], spans["cell B"], spans["inner B"], spans["cell C"] = exp, a, b, inner, c
		now = at(28)
		inner.AddEvent("tick")
		ids := map[string]uint64{}
		for _, name := range endOrder {
			now = at(ends[name])
			spans[name].End()
			ids[name] = spans[name].ID
		}
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), ids
	}

	got, ids := export([]string{"inner B", "cell A", "cell B", "cell C", "exp"})
	other, _ := export([]string{"cell C", "cell B", "exp", "inner B", "cell A"})
	if !bytes.Equal(got, other) {
		t.Errorf("the export depends on the order the spans ended in:\n%s\n---\n%s", got, other)
	}

	var parsed struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   int64
			Pid  int
			Tid  uint64
		}
	}
	if err := json.Unmarshal(got, &parsed); err != nil {
		t.Fatal(err)
	}
	wantTid := map[string]uint64{
		"exp": ids["exp"], "cell A": ids["exp"], "cell C": ids["exp"],
		"cell B": ids["cell B"], "inner B": ids["cell B"], "tick": ids["cell B"],
	}
	seen := 0
	var prev struct {
		pid int
		tid uint64
		ts  int64
	}
	for _, ev := range parsed.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		if ev.Tid != wantTid[ev.Name] {
			t.Errorf("%q is on tid %d, want %d", ev.Name, ev.Tid, wantTid[ev.Name])
		}
		if ev.Pid < prev.pid || ev.Pid == prev.pid && (ev.Tid < prev.tid || ev.Tid == prev.tid && ev.Ts < prev.ts) {
			t.Errorf("%q at (pid %d, tid %d, ts %d) comes after (pid %d, tid %d, ts %d)", ev.Name, ev.Pid, ev.Tid, ev.Ts, prev.pid, prev.tid, prev.ts)
		}
		prev.pid, prev.tid, prev.ts = ev.Pid, ev.Tid, ev.Ts
		seen++
	}
	if seen != len(wantTid) {
		t.Errorf("%d events, want %d", seen, len(wantTid))
	}
}
