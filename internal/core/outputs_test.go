package core

import (
	"context"
	"fmt"
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
	nw, nref, run := smallNeuro(t)
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

// TestCheckOutputsCatchesOffTFMask is the mutation check of the
// TensorFlow mask comparison: each mask is held bit for bit to its own
// threshold rule, so a mask with one voxel flipped fails the check
// CheckOutputs makes, naming that mask's subject.
func TestCheckOutputsCatchesOffTFMask(t *testing.T) {
	nw, nref, run := smallNeuro(t)
	tfOut := run("TensorFlow")
	if _, err := checkNeuro(tfOut, nw, nref); err != nil {
		t.Fatal(err)
	}
	r, err := tfOut.(*lazy.Value[*neuro.TFResult]).Force()
	if err != nil {
		t.Fatal(err)
	}
	s := nw.Subjects - 1
	off := r.Masks[s].Clone()
	off.Data[len(off.Data)/2] = 1 - off.Data[len(off.Data)/2]
	mutated := &neuro.TFResult{Masks: maps.Clone(r.Masks), Denoised: r.Denoised}
	mutated.Masks[s] = off
	_, err = checkNeuro(lazy.Of(func() (*neuro.TFResult, error) { return mutated, nil }), nw, nref)
	if want := fmt.Sprintf("subject %d: mask differs", s); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("a TensorFlow mask with one voxel flipped: err = %v, want one containing %q", err, want)
	}
}

// smallNeuro is the smallest cell on volumes smaller than quick's, so
// that the engines' denoise runs in a fraction of its time: its
// workload, the reference's result, and a run of one engine's
// neuroscience pipeline on it.
func smallNeuro(t *testing.T) (*neuro.Workload, *neuro.Result, func(string) any) {
	t.Helper()
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
	return nw, nref, run
}
