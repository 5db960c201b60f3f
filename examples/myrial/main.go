// MyriaL frontend: run the paper's Figure 7 denoising program — the
// actual MyriaL text, parsed and compiled onto the Myria engine — over a
// synthetic dMRI subject on a simulated 4-node cluster.
//
// The program joins the Images relation with the per-subject Mask and
// applies the registered Denoise Python UDF to every masked volume,
// exactly as the paper's Myria implementation does.
package main

import (
	"fmt"
	"log"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/myria"
	"imagebench/internal/myrial"
	"imagebench/internal/neuro"
	"imagebench/internal/npy"
	"imagebench/internal/objstore"
	"imagebench/internal/volume"
)

// program is the paper's Figure 7 MyriaL query (modulo the stale alias
// qualifiers inside the EMIT, which reference a table that is out of
// scope after the join).
const program = `
T1 = SCAN(Images);
T2 = SCAN(Mask);
Joined = [SELECT T1.subjId, T1.imgId, T1.img, T2.mask
          FROM T1, T2
          WHERE T1.subjId = T2.subjId];
Denoised = [FROM Joined EMIT
            PYUDF(Denoise, img, mask) AS img, subjId, imgId];
STORE(Denoised, DenoisedImages);
`

func main() {
	// Synthetic subject staged in the in-memory object store.
	w, err := neuro.NewWorkload(1)
	if err != nil {
		log.Fatal(err)
	}

	cfg := cluster.DefaultConfig()
	cfg.Nodes = 4
	cl := cluster.New(cfg)
	eng := myria.New(cl, w.Store, cost.Default(), myria.DefaultConfig())

	// Ingest the Images base table: one tuple per image volume, with the
	// serialized array in the img BLOB column.
	imgSchema := myrial.Schema{Key: []string{"subjId", "imgId"}, Cols: []string{"subjId", "imgId", "img"}}
	originals := make(map[int]*volume.V3)
	images, err := eng.Ingest("Images", "neuro/npy/", func(o objstore.Object) []myria.Tuple {
		var s, t int
		if _, err := fmt.Sscanf(o.Key, "neuro/npy/subj-%03d/vol-%03d.npy", &s, &t); err != nil {
			log.Fatalf("bad key %q: %v", o.Key, err)
		}
		v, err := npy.Decode(o.Data)
		if err != nil {
			log.Fatalf("decoding %s: %v", o.Key, err)
		}
		originals[t] = v
		row := myrial.Row{
			"subjId": {V: s},
			"imgId":  {V: t},
			"img":    {V: v, Size: o.ModelBytes},
		}
		return []myria.Tuple{imgSchema.TupleOf(row)}
	})
	if err != nil {
		log.Fatal(err)
	}

	// Compute the mask with the reference segmentation (the paper's
	// Myria implementation runs it as a first query; here it seeds the
	// Mask relation directly).
	ref, err := neuro.Reference(w)
	if err != nil {
		log.Fatal(err)
	}
	mask := ref.Subjects[0].Mask
	maskSchema := myrial.Schema{Key: []string{"subjId"}, Cols: []string{"subjId", "mask"}}
	maskRow := myrial.Row{
		"subjId": {V: 0},
		"mask":   {V: mask, Size: mask.Bytes()},
	}
	q := eng.NewQuery()
	masks := eng.RelationFromTuples(q, "Mask", []myria.Tuple{maskSchema.TupleOf(maskRow)})
	if _, err := q.Finish(); err != nil {
		log.Fatal(err)
	}

	// Bind tables and the Denoise UDF, then run the program.
	env := myrial.NewEnv()
	env.DefineTable("Images", imgSchema, images)
	env.DefineTable("Mask", maskSchema, masks)
	env.DefineUDF("Denoise", cost.Denoise, func(args []myrial.Cell) []myrial.Cell {
		vol := args[0].V.(*volume.V3)
		m := args[1].V.(*volume.V3)
		den := neuro.Denoise(vol, m)
		return []myrial.Cell{{V: den, Size: den.Bytes()}}
	})

	fmt.Print("running MyriaL program:\n", program, "\n")
	res, err := myrial.Run(eng, program, env)
	if err != nil {
		log.Fatal(err)
	}

	rows := myrial.Rows(res.Stored["DenoisedImages"])
	fmt.Printf("denoised %d volumes for subject 0\n", len(rows))
	fmt.Printf("simulated cluster time: %v over %d tasks\n", cl.Makespan(), cl.Tasks())

	// Sanity: the MyriaL result matches denoising the original volumes
	// directly with the same mask.
	var worst float64
	for _, r := range rows {
		id := r["imgId"].V.(int)
		got := r["img"].V.(*volume.V3)
		want := neuro.Denoise(originals[id], mask)
		if d := volume.MaxAbsDiff(got, want); d > worst {
			worst = d
		}
	}
	fmt.Printf("max |MyriaL - direct| over all volumes = %g\n", worst)
}
