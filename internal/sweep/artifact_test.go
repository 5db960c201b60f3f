package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/runner"
)

// artifactFixture builds a representative cell set: a done cell with a
// table (including a NaN cell, which marshals as null), a cache hit, a
// failed cell with an error, and an unsupported one.
func artifactFixture() []ArtifactCell {
	tab := core.NewTable("t", "s", []string{"r"}, []string{"a", "b"})
	tab.Set("r", "a", 1.25)
	tab.Set("r", "b", math.NaN())
	return []ArtifactCell{
		{Experiment: "fig10f", Profile: "quick", Key: "k0", Status: "done", ElapsedSec: 0.25, Table: tab},
		{Experiment: "fig10f", Profile: "quick", Key: "k1", Status: "done", CacheHit: true, ElapsedSec: 0},
		{Experiment: "fig11", Profile: "quick", Key: "k2", Status: "failed", Error: "boom", ElapsedSec: 1.5},
	}
}

// TestArtifactWriterMatchesMarshal is the byte-identity contract: the
// streaming writer's output must equal json.MarshalIndent of the
// materialized document plus a trailing newline — the exact bytes the
// pre-streaming CLI wrote — for both populated and empty cell sets.
func TestArtifactWriterMatchesMarshal(t *testing.T) {
	spec := Spec{Experiments: []string{"fig10f", "fig11"}, Profiles: []string{"quick"}}
	summary := Info{ID: "sw1", Created: "2026-01-01T00:00:00Z", Total: 3, Done: 2, Failed: 1, Hits: 1}
	for _, tc := range []struct {
		name  string
		cells []ArtifactCell
	}{
		{"populated", artifactFixture()},
		{"empty", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			aw := NewArtifactWriter(&buf)
			for _, c := range tc.cells {
				if err := aw.Cell(c); err != nil {
					t.Fatal(err)
				}
			}
			if err := aw.Finish("sw1", spec, summary); err != nil {
				t.Fatal(err)
			}
			doc := artifactDoc{Cells: tc.cells, ID: "sw1", Spec: spec, Summary: summary}
			if doc.Cells == nil {
				doc.Cells = []ArtifactCell{}
			}
			want, err := json.MarshalIndent(doc, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			if got := buf.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("streamed artifact differs from one-shot marshal:\n--- streamed ---\n%s\n--- marshal ---\n%s", got, want)
			}
		})
	}
}

// TestArtifactWriterFinishScrubsSummaryCells guards the summary shape:
// the per-cell list is redundant with the cells array and must not be
// duplicated into the summary object.
func TestArtifactWriterFinishScrubsSummaryCells(t *testing.T) {
	var buf bytes.Buffer
	aw := NewArtifactWriter(&buf)
	sum := Info{ID: "x", Total: 1, Cells: []CellInfo{{Key: "k"}}}
	if err := aw.Finish("x", Spec{Experiments: []string{"e"}}, sum); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"cells"`+`: [`+"\n    {") {
		t.Fatalf("summary leaked its cells list:\n%s", buf.String())
	}
	var doc artifactDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if doc.Summary.Cells != nil {
		t.Fatal("summary.cells must be omitted from the artifact")
	}
}

// TestStreamArtifactReleasesTables runs real sweeps end to end and
// checks the O(workers) contract: the streamed artifact carries every
// cell's table, after streaming the jobs no longer retain them, and a
// 200-cell grid (fig10a/fig10b × 100 cluster sizes) streams within a
// small peak-heap bound.
func TestStreamArtifactReleasesTables(t *testing.T) {
	sched := runner.New(runner.Options{Workers: 1})
	defer sched.Close()
	mgr, err := NewManager(sched, "", time.Now)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(t *testing.T, overrides []core.Overrides) *Sweep {
		t.Helper()
		s, _, err := mgr.Submit(Spec{
			Experiments: []string{"fig10a", "fig10b"},
			Profiles:    []string{"quick"},
			Overrides:   overrides,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	t.Run("2 cells", func(t *testing.T) {
		s := submit(t, nil)
		var buf bytes.Buffer
		final, err := s.StreamArtifact(context.Background(), &buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		if final.Done != 2 || final.Failed != 0 {
			t.Fatalf("sweep summary = %+v, want 2 done", final)
		}
		var doc artifactDoc
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("streamed artifact is not valid JSON: %v", err)
		}
		if len(doc.Cells) != 2 {
			t.Fatalf("artifact has %d cells, want 2", len(doc.Cells))
		}
		for _, c := range doc.Cells {
			if c.Table == nil {
				t.Fatalf("cell %s streamed without its table", c.Key)
			}
		}
		// With no cache attached, a released job has nothing to serve.
		for _, c := range s.Cells {
			if _, ok := s.Result(c, nil); ok {
				t.Fatalf("cell %s still retains its table after streaming", c.Key)
			}
		}
	})

	t.Run("200 cells", func(t *testing.T) {
		nodes := make([]core.Overrides, 100)
		for i := range nodes {
			nodes[i] = core.Overrides{ClusterNodes: []int{i + 1}}
		}
		s := submit(t, nodes)
		var final Info
		growth := peakHeapGrowth(func() {
			final, err = s.StreamArtifact(context.Background(), io.Discard, nil)
		})
		if err != nil {
			t.Fatal(err)
		}
		if final.Done != 200 || final.Failed != 0 {
			t.Fatalf("sweep summary = %+v, want 200 done", final)
		}
		// A fig10 table is small enough that holding all 200 of them
		// costs no more heap than releasing them, so the release itself
		// is checked per cell.
		for _, c := range s.Cells {
			if _, ok := s.Result(c, nil); ok {
				t.Fatalf("cell %s still retains its table after streaming", c.Key)
			}
		}
		// The peak rises by about 0.4 MB; the bound catches a cell that
		// starts costing megabytes while it streams.
		t.Logf("peak HeapAlloc rose %d bytes", growth)
		if growth > 16<<20 {
			t.Fatalf("peak HeapAlloc rose %d bytes streaming 200 cells, want at most 16 MiB", growth)
		}
	})
}

// peakHeapGrowth runs f while sampling HeapAlloc every millisecond and
// returns how far the sampled peak rose above HeapAlloc at the start. A
// spike shorter than the interval can be missed, so the result is a
// floor.
func peakHeapGrowth(f func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base, peak := ms.HeapAlloc, ms.HeapAlloc
	sample := func() {
		runtime.ReadMemStats(&ms)
		peak = max(peak, ms.HeapAlloc)
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				sample()
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	f()
	close(quit)
	<-done
	return peak - base
}
