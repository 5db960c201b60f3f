package neuro

import (
	"fmt"
	"sort"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/objstore"
	"imagebench/internal/spark"
	"imagebench/internal/synth"
	"imagebench/internal/volume"
)

// SparkOpts tunes the Spark implementation.
type SparkOpts struct {
	// Partitions is the number of input data partitions; 0 uses Spark's
	// HDFS-block-style default (few, large partitions — Fig 14).
	Partitions int
	// CacheInput caches the input RDD in memory so the denoise query does
	// not recompute the download (Section 5.3.3).
	CacheInput bool
}

// blockPiece is one z-slab of one volume, the unit the repart flatmap
// emits and the model fit regroups (keyed by subject/block).
type blockPiece struct {
	T     int // gradient-table index, for regrouping order
	Block volume.Block
	Slab  slab
}

// faSlab is a fitted FA slab for one block.
type faSlab struct {
	Block volume.Block
	FA    *lazyVol
}

// tsVol is a volume tagged with its gradient-table index, carried through
// grouping so aggregation order is deterministic (floating-point sums are
// order-sensitive).
type tsVol struct {
	T   int
	Vol *volume.V3
}

// sortedVols extracts tsVol values from grouped records and returns the
// volumes in gradient-table order.
func sortedVols[T any](items []T, get func(T) tsVol) []*volume.V3 {
	tv := make([]tsVol, 0, len(items))
	for _, it := range items {
		tv = append(tv, get(it))
	}
	sort.Slice(tv, func(i, j int) bool { return tv[i].T < tv[j].T })
	vols := make([]*volume.V3, len(tv))
	for i, v := range tv {
		vols[i] = v.Vol
	}
	return vols
}

// RunSpark executes the neuroscience pipeline on the Spark engine,
// mirroring the paper's Figure 6 program: a mask query with collect +
// broadcast, then map(denoise) → flatMap(repart) → groupBy(subject,block)
// → map(fitmodel).
func RunSpark(w *Workload, cl *cluster.Cluster, model *cost.Model, opts SparkOpts) (*Output, error) {
	if model == nil {
		model = cost.Default()
	}
	sess := spark.NewSession(cl, w.Store, model)
	volBytes := synth.PaperVolBytes
	maskBytes := volBytes / 4
	b0 := w.Grad.B0Mask(50)

	decode := func(obj objstore.Object) []spark.Pair {
		s, t, err := npyKeyIDs(obj.Key)
		if err != nil {
			return nil
		}
		v, err := decodeNPY(obj)
		if err != nil {
			return nil
		}
		return []spark.Pair{{Key: VolKey(s, t), Value: v, Size: volBytes}}
	}
	img := sess.Objects("neuro/npy/", opts.Partitions, decode)
	if opts.CacheInput {
		img.Cache()
		if _, err := img.Materialize(); err != nil {
			return nil, err
		}
		cl.MarkStage("ingest")
	}

	// ---- Query 1: Step 1N, the segmentation mask per subject. ----
	b0RDD := img.Map(spark.UDF{Name: "filter-b0", Op: cost.Filter, F: func(p spark.Pair) []spark.Pair {
		s, t, err := ParseVolKey(p.Key)
		if err != nil || t >= len(b0) || !b0[t] {
			return nil
		}
		return []spark.Pair{{Key: SubjKey(s), Value: tsVol{T: t, Vol: p.Value.(*volume.V3)}, Size: p.Size}}
	}})
	maskRDD := b0RDD.GroupByKey("segment", cost.Mean, 0, func(key string, values []spark.Pair) []spark.Pair {
		return []spark.Pair{{Key: key, Value: segmentOnRead(sortedVols(values, func(p spark.Pair) tsVol { return p.Value.(tsVol) })), Size: maskBytes}}
	})
	maskPairs, maskDone, err := maskRDD.Collect()
	if err != nil {
		return nil, err
	}
	cl.MarkStage("mask")
	masks := make(map[int]*lazyVol, w.Subjects)
	for _, p := range maskPairs {
		var s int
		if !synth.ScanKey(p.Key, "s###", &s) {
			return nil, fmt.Errorf("neuro/spark: bad mask key %q", p.Key)
		}
		masks[s] = p.Value.(*lazyVol)
	}
	bcast := sess.Broadcast(maskBytes*int64(len(masks)), maskDone)

	// ---- Query 2: Steps 2N + 3N over the broadcast mask. ----
	nz := w.Cfg.NZ
	blocks := volume.Blocks(nz, w.Blocks)
	slabBytes := volBytes / int64(len(blocks))

	denoised := img.Map(spark.UDF{Name: "denoise", Op: cost.Denoise, F: func(p spark.Pair) []spark.Pair {
		s, _, err := ParseVolKey(p.Key)
		if err != nil {
			return nil
		}
		den := denoiseOnRead(held(p.Value.(*volume.V3)), masks[s])
		return []spark.Pair{{Key: p.Key, Value: den, Size: p.Size}}
	}}).After(bcast)

	repart := denoised.Map(spark.UDF{Name: "repart", Op: cost.Regroup, F: func(p spark.Pair) []spark.Pair {
		s, t, err := ParseVolKey(p.Key)
		if err != nil {
			return nil
		}
		v := p.Value.(*lazyVol)
		out := make([]spark.Pair, 0, len(blocks))
		for bi, b := range blocks {
			out = append(out, spark.Pair{
				Key:   synth.FormatKey("s###/b##", s, bi),
				Value: blockPiece{T: t, Block: b, Slab: blockOnRead(v, b)},
				Size:  slabBytes,
			})
		}
		return out
	}})

	fit := repart.GroupByKey("fitmodel", cost.FitDTM, 0, func(key string, values []spark.Pair) []spark.Pair {
		var s, b int
		if !synth.ScanKey(key, "s###/b##", &s, &b) {
			return nil
		}
		pieces := make([]blockPiece, 0, len(values))
		for _, v := range values {
			pieces = append(pieces, v.Value.(blockPiece))
		}
		sort.Slice(pieces, func(i, j int) bool { return pieces[i].T < pieces[j].T })
		slabs := make([]slab, 0, len(pieces))
		for _, pc := range pieces {
			slabs = append(slabs, pc.Slab)
		}
		maskSlab := blockOnRead(masks[s], pieces[0].Block)
		fa, err := fitOnRead(w.Grad, slabs, maskSlab)
		if err != nil {
			return nil
		}
		return []spark.Pair{{Key: key, Value: faSlab{Block: pieces[0].Block, FA: fa}, Size: slabBytes}}
	}).After(bcast)

	faPairs, _, err := fit.Collect()
	if err != nil {
		return nil, err
	}
	cl.MarkStage("fit")
	return assembleFA(w, masks, faPairs, func(p spark.Pair) (string, any) { return p.Key, p.Value })
}

// assembleFA reassembles collected FA slabs (keyed sSSS/bBB) into
// per-subject FA volumes.
func assembleFA[T any](w *Workload, masks map[int]*lazyVol, items []T, get func(T) (string, any)) (*Output, error) {
	res := &resultOnRead{Subjects: make(map[int]*subjectOnRead)}
	for s, m := range masks {
		res.Subjects[s] = &subjectOnRead{
			Subject: s,
			Mask:    m,
			FA:      newAssembly(w.Cfg.NX, w.Cfg.NY, w.Cfg.NZ),
		}
	}
	for _, it := range items {
		key, val := get(it)
		var s, b int
		if !synth.ScanKey(key, "s###/b##", &s, &b) {
			return nil, fmt.Errorf("neuro: bad fit key %q", key)
		}
		slab, ok := val.(faSlab)
		if !ok {
			return nil, fmt.Errorf("neuro: fit value for %q is %T", key, val)
		}
		sr, ok := res.Subjects[s]
		if !ok {
			return nil, fmt.Errorf("neuro: FA slab for unknown subject %d", s)
		}
		sr.FA.InsertBlock(slab.Block, slab.FA)
	}
	return res.onRead(), nil
}
