package neuro

import (
	"fmt"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/dask"
	"imagebench/internal/myria"
	"imagebench/internal/objstore"
	"imagebench/internal/scidb"
	"imagebench/internal/spark"
	"imagebench/internal/synth"
	"imagebench/internal/tfgraph"
	"imagebench/internal/volume"
	"imagebench/internal/vtime"
)

// This file holds the individual-step runners behind the paper's
// Figure 11 (data ingest) and Figures 12a–12c (filter, mean, denoise):
// one ingest function and one step function per system, which the
// engine registrations (internal/engine) bind by value — nothing here
// is selected by a system name. Each runner receives a fresh cluster,
// performs any setup (ingest) outside the timed region and then the
// measured step, returning the step's virtual duration as the makespan
// delta. A system's setup is written once and shared by its ingest
// runner, its step runner and its tuning study. A nil model means
// cost.Default(), resolved by the system constructors.
//
// The runners model time and return nothing else, so the mean and
// denoise UDFs compute no value: each hands back a record of the
// declared size. What still computes has a reader: the ingest decodes
// (Spark's and Dask's filter UDFs type-assert them) and SciDB's CSV
// round trip (its encoded length sets SciDB's expansion, which reaches
// the rows).

// delta measures the virtual time consumed by f on cl.
func delta(cl *cluster.Cluster, f func() error) (vtime.Duration, error) {
	t0 := cl.Makespan()
	if err := f(); err != nil {
		return 0, err
	}
	return cl.Makespan().Sub(t0), nil
}

// errUnknownStep rejects a step name outside "filter", "mean", "denoise".
func errUnknownStep(step string) error {
	return fmt.Errorf("neuro: unknown step %q", step)
}

// sparkDecode decodes staged .npy objects into volume records; the
// filter UDF type-asserts the decoded value.
func sparkDecode(obj objstore.Object) []spark.Pair {
	s, t, err := npyKeyIDs(obj.Key)
	if err != nil {
		return nil
	}
	v, err := decodeNPY(obj)
	if err != nil {
		return nil
	}
	return []spark.Pair{{Key: VolKey(s, t), Value: v, Size: synth.PaperVolBytes}}
}

func myriaDecode(obj objstore.Object) []myria.Tuple {
	for _, p := range sparkDecode(obj) {
		return []myria.Tuple{{Key: p.Key, Value: p.Value, Size: p.Size}}
	}
	return nil
}

// sparkImages loads the staged volumes into a cached in-memory RDD.
func sparkImages(sess *spark.Session) (*spark.RDD, error) {
	img := sess.Objects("neuro/npy/", sess.Cluster().Workers(), sparkDecode).Cache()
	_, err := img.Materialize()
	return img, err
}

// SparkIngest measures Spark's data-ingest path (Fig 11).
func SparkIngest(w *Workload, cl *cluster.Cluster, model *cost.Model) (vtime.Duration, error) {
	sess := spark.NewSession(cl, w.Store, model)
	return delta(cl, func() error {
		_, err := sparkImages(sess)
		return err
	})
}

// SparkStep measures one pipeline step (Fig 12a–c) on Spark after the
// necessary setup. step is "filter", "mean", or "denoise".
func SparkStep(w *Workload, cl *cluster.Cluster, model *cost.Model, step string) (vtime.Duration, error) {
	sess := spark.NewSession(cl, w.Store, model)
	b0 := w.Grad.B0Mask(50)
	img, err := sparkImages(sess)
	if err != nil {
		return 0, err
	}
	filterUDF := spark.UDF{Name: "filter-b0", Op: cost.Filter, F: func(p spark.Pair) []spark.Pair {
		s, t, err := ParseVolKey(p.Key)
		if err != nil || t >= len(b0) || !b0[t] {
			return nil
		}
		return []spark.Pair{{Key: SubjKey(s), Value: tsVol{T: t, Vol: p.Value.(*volume.V3)}, Size: p.Size}}
	}}
	switch step {
	case "filter":
		return delta(cl, func() error {
			_, err := img.Map(filterUDF).Materialize()
			return err
		})
	case "mean":
		b0RDD := img.Map(filterUDF)
		if _, err := b0RDD.Materialize(); err != nil {
			return 0, err
		}
		return delta(cl, func() error {
			_, err := b0RDD.GroupByKey("mean", cost.Mean, 0, func(key string, _ []spark.Pair) []spark.Pair {
				return []spark.Pair{{Key: key, Size: synth.PaperVolBytes}}
			}).Materialize()
			return err
		})
	case "denoise":
		return delta(cl, func() error {
			_, err := img.Map(spark.UDF{Name: "denoise", Op: cost.Denoise, F: func(p spark.Pair) []spark.Pair { return []spark.Pair{p} }}).Materialize()
			return err
		})
	}
	return 0, errUnknownStep(step)
}

// myriaImages reads the staged volumes from S3 into the per-node
// PostgreSQL instances.
func myriaImages(eng *myria.Engine) (*myria.Relation, error) {
	return eng.Ingest("Images", "neuro/npy/", myriaDecode)
}

// MyriaIngest measures Myria's data-ingest path (Fig 11).
func MyriaIngest(w *Workload, cl *cluster.Cluster, model *cost.Model) (vtime.Duration, error) {
	eng := myria.New(cl, w.Store, model, myria.DefaultConfig())
	return delta(cl, func() error {
		_, err := myriaImages(eng)
		return err
	})
}

// MyriaStep measures one pipeline step (Fig 12a–c) on Myria.
func MyriaStep(w *Workload, cl *cluster.Cluster, model *cost.Model, step string) (vtime.Duration, error) {
	eng := myria.New(cl, w.Store, model, myria.DefaultConfig())
	b0 := w.Grad.B0Mask(50)
	images, err := myriaImages(eng)
	if err != nil {
		return 0, err
	}
	pred := func(t myria.Tuple) bool {
		_, vol, err := ParseVolKey(t.Key)
		return err == nil && vol < len(b0) && b0[vol]
	}
	switch step {
	case "filter":
		// Selection pushed down into the node-local store.
		return delta(cl, func() error {
			q := eng.NewQuery()
			q.ScanWhere(images, pred)
			_, err := q.Finish()
			return err
		})
	case "mean":
		q := eng.NewQuery()
		b0Rel := q.ScanWhere(images, pred)
		h, err := q.Finish()
		if err != nil {
			return 0, err
		}
		return delta(cl, func() error {
			q2 := eng.NewQuery(h)
			q2.GroupByApply(b0Rel,
				func(t myria.Tuple) string { s, _, _ := ParseVolKey(t.Key); return SubjKey(s) },
				myria.PyUDA{Name: "mean", Op: cost.Mean, F: func(key string, _ []myria.Tuple) []myria.Tuple {
					return []myria.Tuple{{Key: key, Size: synth.PaperVolBytes}}
				}})
			_, err := q2.Finish()
			return err
		})
	case "denoise":
		return delta(cl, func() error {
			q := eng.NewQuery()
			scan := q.Scan(images)
			q.Apply(scan, myria.PyUDF{Name: "Denoise", Op: cost.Denoise, F: func(t myria.Tuple) []myria.Tuple { return []myria.Tuple{t} }})
			_, err := q.Finish()
			return err
		})
	}
	return 0, errUnknownStep(step)
}

// daskFetch builds one NIfTI-load task per subject, subjects pinned to
// nodes (Section 5.2.1).
func daskFetch(sess *dask.Session, w *Workload) []*dask.Delayed {
	fetch := make([]*dask.Delayed, w.Subjects)
	for s := range fetch {
		fetch[s] = sess.Fetch(synth.NeuroKeyNIfTI(s), s%sess.Cluster().Nodes(), func(obj objstore.Object) (any, int64, error) {
			v4, err := decodeNIfTI(obj)
			return v4, w.Cfg.SubjectModelBytes(), err
		})
	}
	return fetch
}

// daskFilter builds one b0-selection task per fetched subject: all data
// is in memory, so filtering is a cheap in-memory select.
func daskFilter(sess *dask.Session, fetch []*dask.Delayed, b0 []bool) []*dask.Delayed {
	filtered := make([]*dask.Delayed, len(fetch))
	for s := range fetch {
		filtered[s] = sess.Delayed("filter/"+SubjKey(s), cost.Filter,
			[]*dask.Delayed{fetch[s]},
			func(args []any) (any, int64, error) {
				v4 := args[0].(*volume.V4).Select(b0)
				return v4, synth.PaperVolBytes * int64(v4.T()), nil
			})
	}
	return filtered
}

// daskCompute evaluates the graph rooted at roots.
func daskCompute(sess *dask.Session, roots []*dask.Delayed) error {
	_, err := sess.Compute(roots...)
	return err
}

// DaskIngest measures Dask's data-ingest path (Fig 11): loading NIfTI
// files into in-memory arrays.
func DaskIngest(w *Workload, cl *cluster.Cluster, model *cost.Model) (vtime.Duration, error) {
	sess := dask.NewSession(cl, w.Store, model)
	return delta(cl, func() error { return daskCompute(sess, daskFetch(sess, w)) })
}

// DaskStep measures one pipeline step (Fig 12a–c) on Dask.
func DaskStep(w *Workload, cl *cluster.Cluster, model *cost.Model, step string) (vtime.Duration, error) {
	if model == nil {
		model = cost.Default() // the denoise tasks below cost themselves from it
	}
	sess := dask.NewSession(cl, w.Store, model)
	b0 := w.Grad.B0Mask(50)
	// Setup: subjects already in memory across the cluster.
	fetch := daskFetch(sess, w)
	if err := daskCompute(sess, fetch); err != nil {
		return 0, err
	}
	switch step {
	case "filter":
		return delta(cl, func() error { return daskCompute(sess, daskFilter(sess, fetch, b0)) })
	case "mean":
		filtered := daskFilter(sess, fetch, b0)
		if err := daskCompute(sess, filtered); err != nil {
			return 0, err
		}
		return delta(cl, func() error {
			var roots []*dask.Delayed
			for s := 0; s < w.Subjects; s++ {
				roots = append(roots, sess.Delayed("mean/"+SubjKey(s), cost.Mean,
					[]*dask.Delayed{filtered[s]},
					func([]any) (any, int64, error) { return nil, synth.PaperVolBytes, nil }))
			}
			return daskCompute(sess, roots)
		})
	case "denoise":
		return delta(cl, func() error {
			var roots []*dask.Delayed
			for s := 0; s < w.Subjects; s++ {
				for t := 0; t < w.Cfg.T; t++ {
					roots = append(roots, sess.DelayedCost("denoise/"+VolKey(s, t),
						func(int64) vtime.Duration {
							return model.AlgTime(cost.Denoise, synth.PaperVolBytes)
						},
						[]*dask.Delayed{fetch[s]},
						func([]any) (any, int64, error) { return nil, synth.PaperVolBytes, nil }))
				}
			}
			return daskCompute(sess, roots)
		})
	}
	return 0, errUnknownStep(step)
}

// SciDBIngestRunner returns the measurement of one SciDB data-ingest
// path (Fig 11's two SciDB bars): SciDBFromArray is the serial SciDB-py
// from_array() load, SciDBAio the accelerated aio_input one.
func SciDBIngestRunner(mode SciDBIngestMode) func(*Workload, *cluster.Cluster, *cost.Model) (vtime.Duration, error) {
	return func(w *Workload, cl *cluster.Cluster, model *cost.Model) (vtime.Duration, error) {
		eng := scidb.New(cl, w.Store, model, scidb.DefaultConfig())
		return delta(cl, func() error {
			_, err := SciDBIngest(w, eng, mode)
			return err
		})
	}
}

// SciDBStep measures one pipeline step (Fig 12a–c) on SciDB.
func SciDBStep(w *Workload, cl *cluster.Cluster, model *cost.Model, step string) (vtime.Duration, error) {
	eng := scidb.New(cl, w.Store, model, scidb.DefaultConfig())
	// The ingest's CSV round trip stays: its encoded length sets SciDB's expansion.
	arr, err := SciDBIngest(w, eng, SciDBAio)
	if err != nil {
		return 0, err
	}
	if h := arr.Done(); h.Err != nil {
		return 0, h.Err
	}
	b0 := w.Grad.B0Mask(50)
	keep := func(c scidb.Chunk) bool {
		_, t, err := ParseVolKey(c.Coords)
		return err == nil && t < len(b0) && b0[t]
	}
	switch step {
	case "filter":
		// The selection cuts across the chunk layout (the volume ID is
		// the fourth dimension): chunks are read, subset, reassembled.
		return delta(cl, func() error {
			f := arr.Filter("filter-b0", false, keep)
			return f.Done().Err
		})
	case "mean":
		filtered := arr.Filter("filter-b0", false, keep)
		if h := filtered.Done(); h.Err != nil {
			return 0, h.Err
		}
		return delta(cl, func() error {
			m := filtered.Aggregate("mean", cost.Mean,
				func(c scidb.Chunk) string { s, _, _ := ParseVolKey(c.Coords); return SubjKey(s) },
				func(key string, _ []scidb.Chunk) scidb.Chunk {
					return scidb.Chunk{Coords: key, Size: synth.PaperVolBytes}
				})
			return m.Done().Err
		})
	case "denoise":
		return delta(cl, func() error {
			d := arr.Stream("denoise", cost.Denoise, func(c scidb.Chunk) scidb.Chunk { return c })
			return d.Done().Err
		})
	}
	return 0, errUnknownStep(step)
}

// tfVol is one staged volume as a TensorFlow item.
type tfVol struct {
	subj, t int
	vol     *volume.V3
}

// tfIngest downloads the staged volumes through the master.
func tfIngest(sess *tfgraph.Session) ([]tfgraph.Tensor, error) {
	items, _, err := sess.Ingest("neuro/npy/", func(obj objstore.Object) ([]tfgraph.Tensor, error) {
		s, t, err := npyKeyIDs(obj.Key)
		if err != nil {
			return nil, err
		}
		v, err := decodeNPY(obj)
		if err != nil {
			return nil, err
		}
		return []tfgraph.Tensor{{Value: tfVol{s, t, v}, Size: synth.PaperVolBytes}}, nil
	})
	return items, err
}

// tfFilter runs the filter step: the flatten + select + reshape
// workaround (Fig 12a), under an explicit volume-to-device assignment
// when assign is non-nil.
func tfFilter(sess *tfgraph.Session, items []tfgraph.Tensor, assign []int) ([]tfgraph.Tensor, error) {
	out, _, err := sess.RunStep("filter-b0", cost.Filter, items,
		tfgraph.StepOpts{Assign: assign, ConvertPasses: 4},
		func(t tfgraph.Tensor) (tfgraph.Tensor, error) { return t, nil })
	return out, err
}

// TFIngest measures TensorFlow's data-ingest path (Fig 11).
func TFIngest(w *Workload, cl *cluster.Cluster, model *cost.Model) (vtime.Duration, error) {
	sess := tfgraph.NewSession(cl, w.Store, model)
	return delta(cl, func() error {
		_, err := tfIngest(sess)
		return err
	})
}

// TFFilterTime measures the TensorFlow filter step under an explicit
// volume-to-device assignment (Section 5.3.1's manual-assignment sweep);
// a nil assign is the round-robin default Fig 12a measures.
func TFFilterTime(w *Workload, cl *cluster.Cluster, model *cost.Model, assign []int) (vtime.Duration, error) {
	sess := tfgraph.NewSession(cl, w.Store, model)
	items, err := tfIngest(sess)
	if err != nil {
		return 0, err
	}
	return delta(cl, func() error {
		_, err := tfFilter(sess, items, assign)
		return err
	})
}

// TFStep measures one pipeline step (Fig 12a–c) on TensorFlow.
func TFStep(w *Workload, cl *cluster.Cluster, model *cost.Model, step string) (vtime.Duration, error) {
	if step == "filter" {
		return TFFilterTime(w, cl, model, nil)
	}
	sess := tfgraph.NewSession(cl, w.Store, model)
	items, err := tfIngest(sess)
	if err != nil {
		return 0, err
	}
	switch step {
	case "mean":
		filtered, err := tfFilter(sess, items, nil)
		if err != nil {
			return 0, err
		}
		b0 := w.Grad.B0Mask(50)
		var b0Items []tfgraph.Tensor
		for _, it := range filtered {
			if vi := it.Value.(tfVol); vi.t < len(b0) && b0[vi.t] {
				b0Items = append(b0Items, it)
			}
		}
		return delta(cl, func() error {
			_, _, err := sess.RunStep("mean", cost.Mean, b0Items, tfgraph.StepOpts{},
				func(t tfgraph.Tensor) (tfgraph.Tensor, error) { return t, nil })
			return err
		})
	case "denoise":
		return delta(cl, func() error {
			_, _, err := sess.RunStep("denoise", cost.Denoise, items, tfgraph.StepOpts{},
				func(t tfgraph.Tensor) (tfgraph.Tensor, error) { return t, nil })
			return err
		})
	}
	return 0, errUnknownStep(step)
}
