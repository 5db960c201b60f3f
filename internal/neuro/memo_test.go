package neuro

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"imagebench/internal/memo"
	"imagebench/internal/nifti"
	"imagebench/internal/objstore"
	"imagebench/internal/synth"
	"imagebench/internal/volume"
	"imagebench/internal/vtime"
)

// memoSeeds hands out synth seeds no other test uses, -count=N
// included: the memo is process-wide and has no reset, so a test that
// must see misses needs volumes nothing has sent through it before.
var memoSeeds atomic.Int64

func unseenSeed() int64 { return 1616 + memoSeeds.Add(1) }

// The differential check on the whole memo: SciDB and Spark, each run
// on a workload no other test uses (a cold table for its content) and
// again on the now warm table, produce the same bits in every output
// voxel and the same virtual makespan. The cold runs decode and convert
// to CSV, the warm runs are served both.
func TestColdAndWarmMemoAgree(t *testing.T) {
	cfg := synth.DefaultNeuro(2)
	cfg.NX, cfg.NY, cfg.NZ, cfg.T, cfg.B0 = 8, 8, 10, 12, 2
	cfg.Seed = unseenSeed() // no other test's volumes
	w, err := NewWorkloadCfg(cfg)
	if err != nil {
		t.Fatal(err)
	}
	misses := func() []uint64 {
		s := memo.Snapshot()
		n := make([]uint64, len(memo.Kinds()))
		for i, k := range memo.Kinds() {
			n[i] = s.Kinds[k].Misses
		}
		return n
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

	m0 := misses()
	cold := do()
	m1 := misses()
	warm := do()
	m2 := misses()
	// Decode is astronomy's; it must only stay where it was.
	for i, k := range memo.Kinds() {
		if k != memo.Decode && m1[i] == m0[i] {
			t.Errorf("%s: the cold runs computed nothing", k)
		}
		if m2[i] != m1[i] {
			t.Errorf("%s: the warm runs computed %d inputs again", k, m2[i]-m1[i])
		}
	}

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
	// And the warm Spark result still agrees with the streamed
	// reference, which never touches the memo: not one hit, miss or
	// byte of any kind.
	before := memo.Snapshot()
	ref, err := Reference(w)
	if err != nil {
		t.Fatal(err)
	}
	if after := memo.Snapshot(); !reflect.DeepEqual(before, after) {
		t.Errorf("Reference went through the memo: %+v before, %+v after", before, after)
	}
	resultsEqual(t, "warm spark", warm.spark, ref, 1e-9)
}

// A staged object is decoded once per process and every reader gets the
// held value; an object that fails to decode fails on every call and
// nothing is kept. The arena path (Reference, which puts the volumes
// it decodes back into the scratch arena) never receives a held
// volume, so recycling its volumes never writes to one.
func TestDecodeIsHeldAndArenasStayApart(t *testing.T) {
	cfg := synth.DefaultNeuro(1)
	cfg.NX, cfg.NY, cfg.NZ, cfg.T, cfg.B0 = 8, 8, 10, 6, 2
	cfg.Seed = unseenSeed()
	w, err := NewWorkloadCfg(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loads := func() memo.KindStats { return memo.Snapshot().Kinds[memo.Load] }
	before := loads()
	vol, err := w.Store.Get(synth.NeuroKeyNPY(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	a, errA := decodeNPY(vol)
	b, errB := decodeNPY(vol)
	if errA != nil || errB != nil || a != b {
		t.Fatalf("two decodes of one object: %p (%v) and %p (%v)", a, errA, b, errB)
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
	if s := loads(); s.Misses-before.Misses != 2 || s.Hits-before.Hits != 2 {
		t.Fatalf("%d misses and %d hits, want 2 and 2", s.Misses-before.Misses, s.Hits-before.Hits)
	}

	before = loads()
	bad := objstore.Object{Key: "neuro/npy/subj-000/vol-000.npy", Data: []byte("not a NumPy file")}
	for round := 0; round < 2; round++ {
		if v, err := decodeNPY(bad); err == nil || v != nil {
			t.Fatalf("round %d: a bad object decoded to %p", round, v)
		}
	}
	if s := loads(); s.Misses-before.Misses != 2 || s.Bytes != before.Bytes {
		t.Fatalf("two failed decodes: %d misses and %d bytes kept, want 2 and 0", s.Misses-before.Misses, s.Bytes-before.Bytes)
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
	for _, v := range arena.Vols {
		if v.Digest() != nil {
			t.Error("the arena handed out a volume that carries a digest, one the memo holds")
		}
		volume.Scratch.Put(v)
	}
	for i, v := range held.Vols {
		if v.Digest() == nil {
			t.Fatalf("held volume %d carries no digest", i)
		}
		if d := volume.MaxAbsDiff(v, want.Vols[i]); d != 0 || memo.Digest(v) != memo.Digest(want.Vols[i]) {
			t.Fatalf("held volume %d changed under the arena path", i)
		}
	}
}
