package neuro

import (
	"fmt"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/lazy"
	"imagebench/internal/scidb"
	"imagebench/internal/synth"
	"imagebench/internal/tsv"
	"imagebench/internal/volume"
)

// SciDBIngestMode selects the ingest path (Fig 11).
type SciDBIngestMode int

const (
	// SciDBFromArray is the SciDB-py from_array() path: serial through
	// the coordinator's Python interface (SciDB-1).
	SciDBFromArray SciDBIngestMode = iota
	// SciDBAio converts NIfTI to CSV and loads with the accelerated
	// aio_input() library in parallel (SciDB-2).
	SciDBAio
)

// SciDBResult holds what the SciDB implementation can produce: the paper
// could express only Step 1N (filter + mean + mask) natively and Step 2N
// through the stream() interface; Step 3N was not implementable
// (Table 1: "NA").
type SciDBResult struct {
	Masks    map[int]*volume.V3
	Denoised map[string]*volume.V3 // VolKey → denoised volume (unmasked)
}

// loadSciDBChunks ingests the staged per-volume arrays as one chunk per
// volume.
func loadSciDBChunks(w *Workload) ([]scidb.Chunk, error) {
	var chunks []scidb.Chunk
	for _, key := range w.Store.List("neuro/npy/") {
		obj, err := w.Store.Get(key)
		if err != nil {
			return nil, err
		}
		s, t, err := npyKeyIDs(key)
		if err != nil {
			return nil, err
		}
		v, err := decodeNPY(obj)
		if err != nil {
			return nil, err
		}
		chunks = append(chunks, scidb.Chunk{Coords: VolKey(s, t), Value: v, Size: synth.PaperVolBytes})
	}
	return chunks, nil
}

// SciDBIngest loads the dataset into a SciDB array via the selected path
// and returns the array (used by the ingest benchmark, Fig 11). The aio
// path really converts each volume NIfTI→CSV and parses it back, the
// conversion the paper performs before aio_input; the measured text
// expansion also validates the cost model's CSV tax.
func SciDBIngest(w *Workload, eng *scidb.Engine, mode SciDBIngestMode) (*scidb.Array, error) {
	chunks, err := loadSciDBChunks(w)
	if err != nil {
		return nil, err
	}
	if mode == SciDBFromArray {
		return eng.IngestFromArray("Images", chunks)
	}
	expansion := 2.5
	for i, c := range chunks {
		v := c.Value.(*volume.V3)
		parsed, csvLen, err := tsv.RoundTripCSV(v)
		if err != nil {
			return nil, fmt.Errorf("neuro/scidb: CSV conversion: %w", err)
		}
		if i == 0 {
			expansion = float64(csvLen) / float64(8*v.Len())
		}
		chunks[i].Value = parsed
	}
	return eng.IngestAio("Images", chunks, expansion)
}

// RunSciDB executes the SciDB implementation: ingest, Step 1N with native
// AFL operators (the selection is not aligned with the chunk layout — the
// volume ID is the fourth dimension), and Step 2N through stream(),
// which cannot use the mask (chunks cross the external process as TSV
// without side inputs), mirroring Section 4.1.
func RunSciDB(w *Workload, cl *cluster.Cluster, model *cost.Model, mode SciDBIngestMode) (*lazy.Value[*SciDBResult], error) {
	if model == nil {
		model = cost.Default()
	}
	eng := scidb.New(cl, w.Store, model, scidb.DefaultConfig())
	arr, err := SciDBIngest(w, eng, mode)
	if err != nil {
		return nil, err
	}
	cl.MarkStage("ingest")
	b0 := w.Grad.B0Mask(50)

	// Step 1N: filter b0 volumes (chunk-misaligned selection), then a
	// native dimension aggregate computing the per-subject mean, then the
	// mask on the aggregated chunk.
	filtered := arr.Filter("filter-b0", false, func(c scidb.Chunk) bool {
		_, t, err := ParseVolKey(c.Coords)
		return err == nil && t < len(b0) && b0[t]
	})
	maskArr := filtered.Aggregate("mean-mask", cost.Mean,
		func(c scidb.Chunk) string {
			s, _, _ := ParseVolKey(c.Coords)
			return SubjKey(s)
		},
		func(key string, group []scidb.Chunk) scidb.Chunk {
			vols := make([]*volume.V3, 0, len(group))
			for _, c := range group {
				vols = append(vols, c.Value.(*volume.V3))
			}
			return scidb.Chunk{Coords: key, Value: segmentOnRead(vols), Size: synth.PaperVolBytes / 4}
		})

	// Step 2N: denoise every volume through stream(). The external
	// process sees only the chunk's TSV data, so the mask cannot be
	// applied (unmasked non-local means). The chunk really crosses the
	// boundary as TSV in both directions — the conversion the paper had
	// to build around ("required us to convert between TSV and FITS").
	den := arr.Stream("denoise", cost.Denoise, func(c scidb.Chunk) scidb.Chunk {
		in := c.Value.(*volume.V3)
		back := lazy.Of(func() (*volume.V3, error) {
			v, _, err := tsv.RoundTrip(in)
			if err != nil {
				return nil, fmt.Errorf("neuro/scidb: stream TSV round trip: %w", err)
			}
			out := Denoise(v, nil)
			back, _, err := tsv.RoundTrip(out)
			return back, err
		})
		return scidb.Chunk{Coords: c.Coords, Value: back, Size: c.Size}
	})
	if h := den.Done(); h.Err != nil {
		return nil, h.Err
	}
	if h := maskArr.Done(); h.Err != nil {
		return nil, h.Err
	}
	cl.MarkStage("queries")

	res := &masksOnRead{Masks: make(map[int]*lazyVol), Denoised: make(map[string]reader)}
	for _, c := range maskArr.Chunks {
		var s int
		if !synth.ScanKey(c.Coords, "s###", &s) {
			return nil, fmt.Errorf("neuro/scidb: bad mask coords %q", c.Coords)
		}
		res.Masks[s] = c.Value.(*lazyVol)
	}
	for _, c := range den.Chunks {
		res.Denoised[c.Coords] = c.Value.(*lazyVol)
	}
	return res.scidb(), nil
}
