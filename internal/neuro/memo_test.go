package neuro

import (
	"testing"

	"imagebench/internal/imaging"
	"imagebench/internal/synth"
	"imagebench/internal/volume"
)

// The five engines share Step 2N: on one workload of the quick
// profile's geometry, the three masked engines run the kernel once per
// volume between them, and SciDB (whose volumes arrive through a TSV
// round trip) and TensorFlow share the unmasked runs.
func TestEnginesShareStep2N(t *testing.T) {
	cfg := synth.DefaultNeuro(2)
	cfg.NX, cfg.NY, cfg.NZ, cfg.T, cfg.B0 = 8, 8, 10, 48, 3
	cfg.Seed = 1616 // no other test's volumes, so every first call is a miss
	w, err := NewWorkloadCfg(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vols := uint64(cfg.Subjects * cfg.T)
	ref, err := Reference(w)
	if err != nil {
		t.Fatal(err)
	}
	base := imaging.NLMeans3MemoStats()
	delta := func() (hits, misses uint64) {
		s := imaging.NLMeans3MemoStats()
		return s.Hits - base.Hits, s.Misses - base.Misses
	}

	spark, err := RunSpark(w, testCluster(), nil, SparkOpts{Partitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	myria, err := RunMyria(w, testCluster(), nil, MyriaOpts{})
	if err != nil {
		t.Fatal(err)
	}
	dask, err := RunDask(w, testCluster(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := delta(); misses != vols || hits != 2*vols {
		t.Fatalf("Spark, Myria, Dask over %d volumes: %d misses and %d hits, want %d and %d",
			vols, misses, hits, vols, 2*vols)
	}
	// Whether it computed or was served, each engine still agrees with
	// the streamed reference, which never touches the memo.
	resultsEqual(t, "spark", spark, ref, 1e-9)
	resultsEqual(t, "myria", myria, ref, 1e-9)
	resultsEqual(t, "dask", dask, ref, 1e-9)

	sci, err := RunSciDB(w, testCluster(), nil, SciDBAio)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := RunTF(w, testCluster(), nil, TFOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := delta(); misses != 2*vols || hits != 3*vols {
		t.Fatalf("after SciDB and TensorFlow: %d misses and %d hits, want %d and %d",
			misses, hits, 2*vols, 3*vols)
	}
	for key, v := range sci.Denoised {
		if d := volume.MaxAbsDiff(v, tf.Denoised[key]); d != 0 {
			t.Fatalf("%s: SciDB and TensorFlow denoised volumes differ by %g", key, d)
		}
	}
}
