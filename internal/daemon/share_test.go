package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"path/filepath"
	"testing"

	"imagebench/internal/core"
	"imagebench/internal/sweep"
)

// TestSweepAstroGridSharesRuns runs the sweep-astro benchmark's grid
// shape, its ten astronomy and ablation experiments at the seven node
// pairs (lo, 17-lo), through a disk-backed daemon. Only fig10h reads
// the node axis, so the grid's 70 cells need 7 fig10h runs and one run
// of each other experiment's canonical (plain quick) profile: 16 in all.
// Every cell still gets its own key's table, byte-identical to a direct
// run under the cell's own profile.
func TestSweepAstroGridSharesRuns(t *testing.T) {
	dir := t.TempDir()
	d, err := New(Config{Workers: 2, CacheDir: filepath.Join(dir, "cache"),
		Journal: filepath.Join(dir, "jobs.journal"), SweepDir: filepath.Join(dir, "sweeps")})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	spec := sweep.Spec{Experiments: []string{
		"abl-dask-stealing", "abl-myria-pushdown", "abl-spark-pytax",
		"fig10d", "fig10f", "fig10h", "fig12d", "fig15", "ftastro", "sec531scidb",
	}}
	for lo := 2; lo <= 8; lo++ {
		spec.Overrides = append(spec.Overrides, core.Overrides{ClusterNodes: []int{lo, 17 - lo}})
	}
	sw, _, err := d.Sweeps.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sw.StreamArtifact(context.Background(), io.Discard, d.Cache)
	if err != nil {
		t.Fatal(err)
	}
	if info.Total != 70 || info.Done != 70 {
		t.Fatalf("sweep finished %d of %d cells, want 70 of 70", info.Done, info.Total)
	}
	if st := d.Sched.Stats(); st.Executed != 16 {
		t.Errorf("the grid executed %d jobs, want 16 (7 fig10h cells and 9 canonical runs)", st.Executed)
	}
	for _, c := range sw.Cells {
		got, ok := sw.Result(c, d.Cache)
		if !ok {
			t.Fatalf("%s/%s: no result", c.Experiment, c.Profile.Name)
		}
		x, err := core.Lookup(c.Experiment)
		if err != nil {
			t.Fatal(err)
		}
		want, err := x.RunContext(context.Background(), c.Profile)
		if err != nil {
			t.Fatal(err)
		}
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s/%s: swept table differs from a direct run:\n%s\nwant\n%s", c.Experiment, c.Profile.Name, gb, wb)
		}
	}
}
