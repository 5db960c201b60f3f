package core

import (
	"context"
	"maps"
	"strings"
	"testing"

	"imagebench/internal/engine"
	"imagebench/internal/lazy"
	"imagebench/internal/neuro"
)

// TestCheckOutputsQuick runs the engine-output check the way
// `imagebench -profile quick all` does after its tables.
func TestCheckOutputsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("forces every engine's outputs; skipped in -short")
	}
	if err := CheckOutputs(context.Background(), Quick()); err != nil {
		t.Fatal(err)
	}
}

// TestCheckOutputsCatchesOffDenoise is the mutation check of the
// denoise comparison: SciDB's and TensorFlow's unmasked denoise agree
// bit for bit, and a SciDB volume off in one voxel fails the check
// CheckOutputs makes, naming that volume's key. The volumes are smaller
// than quick's, which TestCheckOutputsQuick covers, so that the two
// engines denoise in a fraction of its time.
func TestCheckOutputsCatchesOffDenoise(t *testing.T) {
	p := Quick()
	p.NeuroNX, p.NeuroNY, p.NeuroNZ, p.NeuroT = 6, 6, 6, 12
	nw, err := neuroWorkload(p, p.NeuroSubjects[0])
	if err != nil {
		t.Fatal(err)
	}
	nref, err := neuro.Reference(nw)
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string) any {
		e, err := engine.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RunNeuro(context.Background(), nw, runCluster(defaultNodes(p), nw.InputModelBytes()), model, engine.Opts{CacheInput: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.Output
	}
	sciOut := run("SciDB")
	sci, err := checkNeuro(sciOut, nw, nref)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := checkNeuro(run("TensorFlow"), nw, nref)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameDenoise(tf, sci, "SciDB"); err != nil {
		t.Fatalf("the engines disagree before any mutation: %v", err)
	}

	r, err := sciOut.(*lazy.Value[*neuro.SciDBResult]).Force()
	if err != nil {
		t.Fatal(err)
	}
	key := neuro.VolKey(0, 1)
	off := r.Denoised[key].Clone()
	off.Data[len(off.Data)/2] += 1e-12
	mutated := &neuro.SciDBResult{Masks: r.Masks, Denoised: maps.Clone(r.Denoised)}
	mutated.Denoised[key] = off
	sci, err = checkNeuro(lazy.Of(func() (*neuro.SciDBResult, error) { return mutated, nil }), nw, nref)
	if err != nil {
		t.Fatal(err)
	}
	err = sameDenoise(tf, sci, "SciDB")
	if err == nil || !strings.Contains(err.Error(), "denoised "+key+" ") {
		t.Errorf("a SciDB volume off in one voxel: err = %v, want one naming %s", err, key)
	}
}
