package neuro

import (
	"math"
	"testing"

	"imagebench/internal/nifti"
	"imagebench/internal/npy"
	"imagebench/internal/objstore"
	"imagebench/internal/synth"
	"imagebench/internal/volume"
	"imagebench/internal/vtime"
)

// The differential check on the held decodes: SciDB and Spark, each run
// on a fresh workload (no object holds a decode yet) and again once the
// cold runs have left every per-volume object decoded and held, produce
// the same bits in every output voxel and the same virtual makespan.
func TestColdAndWarmMemoAgree(t *testing.T) {
	cfg := synth.DefaultNeuro(2)
	cfg.NX, cfg.NY, cfg.NZ, cfg.T, cfg.B0 = 8, 8, 10, 12, 2
	w, err := NewWorkloadCfg(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		sci      *SciDBResult
		spark    *Result
		makespan [2]vtime.Time
	}
	do := func() run {
		var r run
		cl := testCluster()
		if r.sci, err = force(RunSciDB(w, cl, nil, SciDBAio)); err != nil {
			t.Fatal(err)
		}
		r.makespan[0] = cl.Makespan()
		cl = testCluster()
		if r.spark, err = force(RunSpark(w, cl, nil, SparkOpts{Partitions: 8})); err != nil {
			t.Fatal(err)
		}
		r.makespan[1] = cl.Makespan()
		return r
	}

	cold := do()
	for _, key := range w.Store.List("neuro/npy/") {
		obj, _ := w.Store.Get(key)
		obj.Decoded(func(b []byte) (any, error) {
			t.Errorf("%s: the cold runs left no decode held", key)
			return npy.Decode(b)
		})
	}
	warm := do()

	if cold.makespan != warm.makespan {
		t.Errorf("makespans (SciDB, Spark): cold %v, warm %v", cold.makespan, warm.makespan)
	}
	sameBits := func(what string, a, b *volume.V3) {
		t.Helper()
		if a == nil || b == nil || !a.SameShape(b) {
			t.Fatalf("%s: missing or reshaped", what)
		}
		for i := range a.Data {
			if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
				t.Fatalf("%s: voxel %d is %v cold and %v warm", what, i, a.Data[i], b.Data[i])
			}
		}
	}
	if len(cold.sci.Denoised) != cfg.Subjects*cfg.T || len(warm.sci.Denoised) != len(cold.sci.Denoised) {
		t.Fatalf("SciDB denoised %d volumes cold and %d warm, want %d", len(cold.sci.Denoised), len(warm.sci.Denoised), cfg.Subjects*cfg.T)
	}
	for key, v := range cold.sci.Denoised {
		sameBits("SciDB denoised "+key, v, warm.sci.Denoised[key])
	}
	for s, m := range cold.sci.Masks {
		sameBits("SciDB mask "+SubjKey(s), m, warm.sci.Masks[s])
	}
	if len(cold.spark.Subjects) != cfg.Subjects || len(warm.spark.Subjects) != cfg.Subjects {
		t.Fatalf("Spark produced %d subjects cold and %d warm", len(cold.spark.Subjects), len(warm.spark.Subjects))
	}
	for s, sr := range cold.spark.Subjects {
		sameBits("Spark mask "+SubjKey(s), sr.Mask, warm.spark.Subjects[s].Mask)
		sameBits("Spark FA "+SubjKey(s), sr.FA, warm.spark.Subjects[s].FA)
	}
	// And the warm Spark result still agrees with the streamed reference.
	ref, err := Reference(w)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "warm spark", warm.spark, ref, 1e-9)
}

// A staged object is decoded once and every reader gets the held
// value; a stored object that fails to decode holds its error, and one
// that never went through the store fails on every call. The arena
// path (Reference, which puts the volumes it decodes back into the
// scratch arena) never receives a held volume, nor does npy.Decode, so
// recycling its volumes never writes to one.
func TestDecodeIsHeldAndArenasStayApart(t *testing.T) {
	cfg := synth.DefaultNeuro(1)
	cfg.NX, cfg.NY, cfg.NZ, cfg.T, cfg.B0 = 8, 8, 10, 6, 2
	w, err := NewWorkloadCfg(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vol, err := w.Store.Get(synth.NeuroKeyNPY(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	a, errA := decodeNPY(vol)
	b, errB := decodeNPY(vol)
	if errA != nil || errB != nil || a != b {
		t.Fatalf("two decodes of one object: %p (%v) and %p (%v)", a, errA, b, errB)
	}
	if pure, err := npy.Decode(vol.Data); err != nil || pure == a || volume.MaxAbsDiff(pure, a) != 0 {
		t.Fatalf("npy.Decode: %v, the held pointer %v", err, pure == a)
	}
	nii, err := w.Store.Get(synth.NeuroKeyNIfTI(0))
	if err != nil {
		t.Fatal(err)
	}
	held, errA := decodeNIfTI(nii)
	again, errB := decodeNIfTI(nii)
	if errA != nil || errB != nil || again != held {
		t.Fatalf("two decodes of one subject: %p (%v) and %p (%v)", held, errA, again, errB)
	}

	st := objstore.New()
	st.Put("neuro/npy/subj-000/vol-000.npy", []byte("not a NumPy file, and longer than a small object"), 0)
	stored, _ := st.Get("neuro/npy/subj-000/vol-000.npy")
	for _, bad := range []objstore.Object{stored, {Key: "neuro/npy/subj-000/vol-001.npy", Data: []byte("not a NumPy file")}} {
		for round := 0; round < 2; round++ {
			if v, err := decodeNPY(bad); err == nil || v != nil {
				t.Fatalf("%s round %d: a bad object decoded to %p", bad.Key, round, v)
			}
		}
	}

	want, err := nifti.Decode4(nii.Data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Reference(w); err != nil {
		t.Fatal(err)
	}
	arena, err := decodeNIfTIArena(nii, volume.Scratch)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range arena.Vols {
		if v == held.Vols[i] || &v.Data[0] == &held.Vols[i].Data[0] {
			t.Errorf("the arena handed out held volume %d", i)
		}
		volume.Scratch.Put(v)
	}
	for i, v := range held.Vols {
		if d := volume.MaxAbsDiff(v, want.Vols[i]); d != 0 {
			t.Fatalf("held volume %d changed under the arena path", i)
		}
	}
}
