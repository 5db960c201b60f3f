package astro

import (
	"testing"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/imaging"
)

func aflCluster() *cluster.Cluster {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 4
	return cluster.New(cfg)
}

// TestRunAFLCoaddMatchesReference validates the AFL-frontend co-addition
// against the reference pipeline's coadds, patch by patch.
func TestRunAFLCoaddMatchesReference(t *testing.T) {
	w, err := NewWorkload(2)
	if err != nil {
		t.Fatal(err)
	}
	stacks, err := BuildStacks(w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunAFLCoadd(w, aflCluster(), cost.Default(), stacks, SciDBOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Reference(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("AFL coadd produced no patches")
	}
	for p, co := range got {
		want, ok := ref.Patches[p]
		if !ok {
			t.Fatalf("patch %v not in reference", p)
		}
		if d := maxPixDiff(co.Flux, want.Coadd.Flux); d != 0 {
			t.Errorf("patch %v: AFL coadd flux differs from reference by %g", p, d)
		}
	}
}

func maxPixDiff(a, b *imaging.Image) float64 {
	var m float64
	for i := range a.Pix {
		d := a.Pix[i] - b.Pix[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// TestRunAFLCoaddIncrementalFaster checks the frontend path preserves
// the incremental-iteration speedup (Fig 12d's 6× recovery).
func TestRunAFLCoaddIncrementalFaster(t *testing.T) {
	w, err := NewWorkload(2)
	if err != nil {
		t.Fatal(err)
	}
	stacks, err := BuildStacks(w)
	if err != nil {
		t.Fatal(err)
	}
	run := func(inc bool) float64 {
		cl := aflCluster()
		if _, err := RunAFLCoadd(w, cl, cost.Default(), stacks, SciDBOpts{Incremental: inc}); err != nil {
			t.Fatal(err)
		}
		return float64(cl.Makespan())
	}
	plain := run(false)
	incremental := run(true)
	if incremental >= plain {
		t.Errorf("incremental (%v) should beat per-statement materialization (%v)", incremental, plain)
	}
}
