package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/runner"
)

// TestConcurrentCellsBitIdentical is the pooled-buffer aliasing stress
// at the sweep level (run under -race in CI): cells executing
// concurrently on a multi-worker scheduler share the process-wide
// scratch arena, and every cell's table must still be byte-identical
// to the one a serial run produces — no cell may ever observe another
// cell's recycled scratch data.
func TestConcurrentCellsBitIdentical(t *testing.T) {
	spec := Spec{
		Experiments: []string{"fig10f"},
		Profiles:    []string{"quick"},
	}
	for i := 0; i < 4; i++ {
		spec.Overrides = append(spec.Overrides, core.Overrides{ClusterNodes: []int{i + 1}})
	}
	run := func(workers int) map[string][]byte {
		sched := runner.New(runner.Options{Workers: workers})
		defer sched.Close()
		mgr, err := NewManager(sched, "", time.Now)
		if err != nil {
			t.Fatal(err)
		}
		s, _, err := mgr.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		final, err := s.StreamArtifact(context.Background(), &buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		if final.Done != len(spec.Overrides) {
			t.Fatalf("workers=%d: %d/%d cells done, %d failed", workers, final.Done, len(spec.Overrides), final.Failed)
		}
		var doc artifactDoc
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]byte, len(doc.Cells))
		for _, c := range doc.Cells {
			tab, err := json.Marshal(c.Table)
			if err != nil {
				t.Fatal(err)
			}
			out[c.Key] = tab
		}
		return out
	}
	serial := run(1)
	concurrent := run(4)
	if len(serial) != len(concurrent) {
		t.Fatalf("cell sets differ: %d serial, %d concurrent", len(serial), len(concurrent))
	}
	for key, want := range serial {
		got, ok := concurrent[key]
		if !ok {
			t.Fatalf("cell %s missing from concurrent run", key)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cell %s differs between serial and concurrent runs:\nserial:     %s\nconcurrent: %s", key, want, got)
		}
	}
}
