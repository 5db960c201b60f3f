package scidb

import (
	"fmt"
	"testing"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/objstore"
)

func engine(nodes int) (*Engine, *cluster.Cluster) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = nodes
	cl := cluster.New(cfg)
	return New(cl, objstore.New(), cost.Default(), DefaultConfig()), cl
}

func chunks(n int, size int64) []Chunk {
	out := make([]Chunk, n)
	for i := range out {
		out[i] = Chunk{Coords: fmt.Sprintf("c%03d", i), Value: i, Size: size}
	}
	return out
}

func TestIngestPathsDiffer(t *testing.T) {
	e1, cl1 := engine(4)
	t0 := cl1.Makespan() // exclude system startup
	if _, err := e1.IngestFromArray("A", chunks(16, 12<<20)); err != nil {
		t.Fatal(err)
	}
	slow := cl1.Makespan().Sub(t0)
	e2, cl2 := engine(4)
	t0 = cl2.Makespan()
	if _, err := e2.IngestAio("A", chunks(16, 12<<20), 2.5); err != nil {
		t.Fatal(err)
	}
	fast := cl2.Makespan().Sub(t0)
	if float64(slow) < 5*float64(fast) {
		t.Errorf("from_array (%v) should be ≫ aio_input (%v)", slow, fast)
	}
}

func TestFilterAlignmentCost(t *testing.T) {
	run := func(aligned bool) float64 {
		e, cl := engine(2)
		a, _ := e.IngestAio("A", chunks(16, 12<<20), 2.5)
		t0 := cl.Makespan()
		f := a.Filter("f", aligned, func(c Chunk) bool { return c.Coords < "c008" })
		if err := f.Done().Err; err != nil {
			t.Fatal(err)
		}
		return cl.Makespan().Sub(t0).Seconds()
	}
	if run(false) <= run(true) {
		t.Error("misaligned selection should cost more than aligned")
	}
}

func TestAggregateGroups(t *testing.T) {
	e, _ := engine(2)
	a, _ := e.IngestAio("A", chunks(8, 1<<20), 2.5)
	agg := a.Aggregate("sum", cost.Mean,
		func(c Chunk) string { return c.Coords[:2] },
		func(key string, group []Chunk) Chunk {
			s := 0
			for _, c := range group {
				s += c.Value.(int)
			}
			return Chunk{Coords: key, Value: s, Size: 1}
		})
	if err := agg.Done().Err; err != nil {
		t.Fatal(err)
	}
	if len(agg.Chunks) != 1 || agg.Chunks[0].Value.(int) != 28 {
		t.Errorf("aggregate %+v", agg.Chunks)
	}
}

// TestStreamTaxesTSV: stream() hands each chunk to its UDF as TSV text
// (2.5× the binary size) and takes the result back the same way, so the
// stage lasts at least one chunk's two TSV conversions. The operator is
// a cheap scan, so the conversions are most of what the stage costs.
func TestStreamTaxesTSV(t *testing.T) {
	const size = 12 << 20
	e, cl := engine(2)
	a, _ := e.IngestAio("A", chunks(8, size), 2.5)
	t0 := cl.Makespan()
	out := a.Stream("s", cost.Filter, func(c Chunk) Chunk { return c })
	if err := out.Done().Err; err != nil {
		t.Fatal(err)
	}
	got, tax := cl.Makespan().Sub(t0), 2*e.model.TSVTime(int64(2.5*size))
	if got < tax {
		t.Errorf("stream() stage took %v, less than one chunk's TSV round trip %v", got, tax)
	}
}

func TestIterativeAQLIncrementalFaster(t *testing.T) {
	run := func(incremental bool) float64 {
		cfg := cluster.DefaultConfig()
		cfg.Nodes = 2
		cl := cluster.New(cfg)
		c := DefaultConfig()
		c.Incremental = incremental
		e := New(cl, objstore.New(), cost.Default(), c)
		a, _ := e.IngestAio("A", chunks(16, 12<<20), 2.5)
		t0 := cl.Makespan()
		out := a.IterativeAQL("it", 2, cost.CoaddIter, func(_ int, cs []Chunk) []Chunk { return cs })
		if err := out.Done().Err; err != nil {
			t.Fatal(err)
		}
		return cl.Makespan().Sub(t0).Seconds()
	}
	full, incr := run(false), run(true)
	if full < 2.5*incr {
		t.Errorf("incremental iteration should recover ≥2.5×: full %v vs incr %v", full, incr)
	}
}

// TestIterativeAQLAllocsPerChunk pins what one iteration allocates per
// chunk: nothing. Each chunk's read → compute → write chain is carried
// as a value and the chunks are folded into one barrier, so the only
// allocations are per iteration (the barrier, the ready slice, the
// placement) and the timelines' amortized growth, a few at most between
// 32 and 64 chunks. When every pass kept its handles on the heap, each
// chunk cost 12 (three handles a pass, four passes).
func TestIterativeAQLAllocsPerChunk(t *testing.T) {
	allocs := func(n int) float64 {
		e, _ := engine(2)
		a, _ := e.IngestAio("A", chunks(n, 1<<20), 2.5)
		same := func(_ int, cs []Chunk) []Chunk { return cs }
		return testing.AllocsPerRun(20, func() { a.IterativeAQL("it", 1, cost.CoaddIter, same) })
	}
	if per := (allocs(64) - allocs(32)) / 32; per >= 1 {
		t.Errorf("one IterativeAQL iteration allocates %.2f times per chunk, want 0", per)
	}
}

func TestChunkTimeOversizePenalty(t *testing.T) {
	e, _ := engine(1)
	small := e.chunkTime(cost.CoaddIter, Chunk{Size: OptimalChunkBytes})
	big := e.chunkTime(cost.CoaddIter, Chunk{Size: 4 * OptimalChunkBytes})
	// 4× the data at >4× the time (penalty on top of linearity).
	if float64(big) <= 4*float64(small) {
		t.Errorf("oversize penalty missing: %v vs %v", big, small)
	}
}
