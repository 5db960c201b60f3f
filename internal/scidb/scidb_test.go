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

func TestStreamTaxesTSV(t *testing.T) {
	// stream() should cost more than a native MapChunks of the same op.
	runs := func(stream bool) float64 {
		e, cl := engine(2)
		a, _ := e.IngestAio("A", chunks(8, 12<<20), 2.5)
		t0 := cl.Makespan()
		var out *Array
		if stream {
			out = a.Stream("s", cost.Denoise, func(c Chunk) Chunk { return c })
		} else {
			out = a.MapChunks("m", cost.Denoise, func(c Chunk) Chunk { return c })
		}
		if err := out.Done().Err; err != nil {
			t.Fatal(err)
		}
		return cl.Makespan().Sub(t0).Seconds()
	}
	if runs(true) <= runs(false) {
		t.Error("stream() should be slower than native processing")
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

func TestChunkTimeOversizePenalty(t *testing.T) {
	e, _ := engine(1)
	small := e.chunkTime(cost.CoaddIter, Chunk{Size: OptimalChunkBytes})
	big := e.chunkTime(cost.CoaddIter, Chunk{Size: 4 * OptimalChunkBytes})
	// 4× the data at >4× the time (penalty on top of linearity).
	if float64(big) <= 4*float64(small) {
		t.Errorf("oversize penalty missing: %v vs %v", big, small)
	}
}
