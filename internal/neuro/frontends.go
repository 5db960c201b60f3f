package neuro

import (
	"fmt"

	"imagebench/internal/afl"
	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/imaging"
	"imagebench/internal/myria"
	"imagebench/internal/myrial"
	"imagebench/internal/objstore"
	"imagebench/internal/scidb"
	"imagebench/internal/synth"
	"imagebench/internal/volume"
)

// This file runs the use case through the query-language frontends the
// paper's implementations were actually written in: Step 1N as an AFL
// program against the SciDB engine (the paper's Figure 5, which uses
// SciDB-py's compress/mean — AFL's filter/aggregate), and Steps 1N+2N as
// the MyriaL programs of Section 4.3 (Figure 7) against the Myria
// engine. Outputs are validated against the reference pipeline by the
// tests.

// RunSciDBAFL executes Step 1N as an AFL program:
//
//	store(aggregate(filter(scan(Images), vol < B0), meanvol(img), subj), mean_b0);
//	store(apply(scan(mean_b0), otsu), Masks)
//
// The vol dimension is not aligned with the chunk layout (it is the
// fourth array dimension), so the filter pays chunk reorganization,
// exactly as RunSciDB's native path does. It returns the per-subject
// masks.
func RunSciDBAFL(w *Workload, cl *cluster.Cluster, model *cost.Model, mode SciDBIngestMode) (map[int]*volume.V3, error) {
	eng := scidb.New(cl, w.Store, model, scidb.DefaultConfig())
	if _, err := SciDBIngest(w, eng, mode); err != nil {
		return nil, err
	}

	env := afl.NewEnv()
	env.DefineDims(func(c scidb.Chunk) map[string]float64 {
		s, t, err := ParseVolKey(c.Coords)
		if err != nil {
			return nil
		}
		return map[string]float64{"subj": float64(s), "vol": float64(t)}
	}, "subj")
	env.DefineAggregate("meanvol", cost.Mean, func(key string, group []scidb.Chunk) scidb.Chunk {
		vols := make([]*volume.V3, 0, len(group))
		for _, c := range group {
			vols = append(vols, c.Value.(*volume.V3))
		}
		return scidb.Chunk{Coords: key, Value: volume.Mean3(vols), Size: synth.PaperVolBytes}
	})
	env.DefineKernel("otsu", cost.Otsu, func(c scidb.Chunk) scidb.Chunk {
		mean := c.Value.(*volume.V3)
		smoothed := imaging.MedianFilter3(mean, 1)
		return scidb.Chunk{Coords: c.Coords, Value: imaging.OtsuMask(smoothed), Size: synth.PaperVolBytes / 4}
	})

	program := fmt.Sprintf(`
		store(aggregate(filter(scan(Images), vol < %d), meanvol(img), subj), mean_b0);
		store(apply(scan(mean_b0), otsu), Masks)
	`, w.Cfg.B0)
	res, err := afl.Run(eng, program, env)
	if err != nil {
		return nil, err
	}
	masksArr := res.Stored["Masks"]
	if h := masksArr.Done(); h.Err != nil {
		return nil, h.Err
	}
	masks := make(map[int]*volume.V3, w.Subjects)
	for _, c := range masksArr.Chunks {
		var s int
		if _, err := fmt.Sscanf(c.Coords, "subj=%d/", &s); err != nil {
			return nil, fmt.Errorf("neuro/afl: bad mask coords %q", c.Coords)
		}
		masks[s] = c.Value.(*volume.V3)
	}
	return masks, nil
}

// MyriaLResult holds the output of the MyriaL-frontend implementation.
type MyriaLResult struct {
	Masks    map[int]*volume.V3
	Denoised map[string]*volume.V3 // VolKey → denoised volume
}

// imgSchema/maskSchema are the relational schemas of the paper's Images
// and Mask relations (Section 4.3: "each tuple consisting of subject ID,
// image ID and image volume", the volume a BLOB).
var (
	myrialImgSchema  = myrial.Schema{Key: []string{"subjId", "imgId"}, Cols: []string{"subjId", "imgId", "img"}}
	myrialMaskSchema = myrial.Schema{Key: []string{"subjId"}, Cols: []string{"subjId", "mask"}}
)

// MyrialIngest loads the staged per-volume arrays into the Images base
// relation with the paper's schema.
func MyrialIngest(w *Workload, eng *myria.Engine) (*myria.Relation, error) {
	return eng.Ingest("Images", "neuro/npy/", func(o objstore.Object) []myria.Tuple {
		s, t, err := npyKeyIDs(o.Key)
		if err != nil {
			return nil
		}
		v, err := decodeNPY(o)
		if err != nil {
			return nil
		}
		row := myrial.Row{
			"subjId": {V: s},
			"imgId":  {V: t},
			"img":    {V: v, Size: synth.PaperVolBytes},
		}
		return []myria.Tuple{myrialImgSchema.TupleOf(row)}
	})
}

// RunMyriaL executes Steps 1N and 2N as the paper's two MyriaL queries:
// the first computes the per-subject mask (filter → grouped segmentation
// UDA), the second joins it back and denoises every volume with the
// registered Python UDF — the program of Figure 7, run through the real
// MyriaL frontend.
func RunMyriaL(w *Workload, cl *cluster.Cluster, model *cost.Model) (*MyriaLResult, error) {
	eng := myria.New(cl, w.Store, model, myria.DefaultConfig())
	images, err := MyrialIngest(w, eng)
	if err != nil {
		return nil, err
	}

	env := myrial.NewEnv()
	env.DefineTable("Images", myrialImgSchema, images)
	env.DefineUDA("SegmentVols", cost.Mean, func(group [][]myrial.Cell) myrial.Cell {
		vols := make([]*volume.V3, 0, len(group))
		for _, args := range group {
			vols = append(vols, args[0].V.(*volume.V3))
		}
		return myrial.Cell{V: Segment(vols), Size: synth.PaperVolBytes / 4}
	})
	env.DefineUDF("Denoise", cost.Denoise, func(args []myrial.Cell) []myrial.Cell {
		v := args[0].V.(*volume.V3)
		m := args[1].V.(*volume.V3)
		den := Denoise(v, m)
		return []myrial.Cell{{V: den, Size: synth.PaperVolBytes}}
	})

	// Query 1: the mask (Step 1N).
	maskProgram := fmt.Sprintf(`
		T1 = SCAN(Images);
		B0 = [SELECT * FROM T1 WHERE T1.imgId < %d];
		M  = [SELECT B0.subjId, PYUDA(SegmentVols, B0.img) AS mask FROM B0];
		STORE(M, Mask);
	`, w.Cfg.B0)
	res1, err := myrial.Run(eng, maskProgram, env)
	if err != nil {
		return nil, err
	}
	env.DefineTable("Mask", myrialMaskSchema, res1.Stored["Mask"])

	// Query 2: Figure 7 — broadcast-join the mask and denoise.
	const denoiseProgram = `
		T1 = SCAN(Images);
		T2 = SCAN(Mask);
		Joined = [SELECT T1.subjId, T1.imgId, T1.img, T2.mask
		          FROM T1, T2
		          WHERE T1.subjId = T2.subjId];
		Denoised = [FROM Joined EMIT
		            PYUDF(Denoise, img, mask) AS img, subjId, imgId];
		STORE(Denoised, DenoisedImages);
	`
	res2, err := myrial.Run(eng, denoiseProgram, env, res1.Done)
	if err != nil {
		return nil, err
	}

	out := &MyriaLResult{Masks: make(map[int]*volume.V3), Denoised: make(map[string]*volume.V3)}
	for _, r := range myrial.Rows(res1.Stored["Mask"]) {
		out.Masks[r["subjId"].V.(int)] = r["mask"].V.(*volume.V3)
	}
	for _, r := range myrial.Rows(res2.Stored["DenoisedImages"]) {
		key := VolKey(r["subjId"].V.(int), r["imgId"].V.(int))
		out.Denoised[key] = r["img"].V.(*volume.V3)
	}
	return out, nil
}
