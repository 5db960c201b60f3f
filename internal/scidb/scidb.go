// Package scidb implements a SciDB-like shared-nothing array DBMS:
// multidimensional arrays stored as chunks distributed round-robin across
// per-node instances, AFL/AQL-style native operators executed chunk at a
// time, and the stream() interface that pipes chunk data through an
// external process as TSV.
//
// Properties the paper's results hinge on, implemented explicitly:
//
//   - Two ingest paths (Fig 11): from_array() routes every value through
//     the coordinator's Python interface (an order of magnitude slower),
//     while aio_input() parses CSV in parallel on all instances but pays
//     the NIfTI/FITS→CSV conversion and CSV expansion first.
//   - Selections not aligned with the chunk layout pay chunk
//     reconstruction on top of the scan (Fig 12a).
//   - Native dimension aggregates are the fastest mean at small scale
//     (Fig 12b): chunk-parallel partials with a cheap combine.
//   - stream() converts chunks to TSV and back, taxing UDF steps
//     (Fig 12c: slightly slower than Spark/Myria/Dask on denoise).
//   - AQL iterative queries (co-addition) materialize every iteration to
//     disk as temporary arrays — >10× slower than UDF-internal iteration
//     (Fig 12d); the incremental-iteration optimization of Soroush et al.
//     (SSDBM'15) recovers ~6× and is implemented as an option.
//   - Chunk size is a sensitive tuning knob (Section 5.3.1): small chunks
//     multiply per-chunk overhead, oversized chunks starve parallelism.
package scidb

import (
	"cmp"
	"fmt"
	"sort"
	"strconv"
	"time"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/objstore"
	"imagebench/internal/vtime"
)

// Config tunes the SciDB deployment.
type Config struct {
	InstancesPerNode int
	// ChunkBytes is the paper-scale chunk size arrays are stored with.
	// The pipelines split their data into chunks of roughly this size.
	ChunkBytes int64
	// ChunkOverhead is the fixed per-chunk processing cost (metadata,
	// iterator setup, chunk map lookups) charged by every operator.
	ChunkOverhead vtime.Duration
	// Incremental enables the incremental iterative-processing
	// optimization for IterativeAQL (off in the official release).
	Incremental bool
}

// DefaultConfig follows the paper's guidance: one instance per 1–2 cores
// (4 per 8-core node) and the empirically best [1000×1000] chunks
// (~12 MB for a 3-plane float32 image).
func DefaultConfig() Config {
	return Config{
		InstancesPerNode: 4,
		ChunkBytes:       12 << 20,
		ChunkOverhead:    20 * time.Millisecond,
	}
}

// Chunk is one stored chunk of an array: an opaque decoded value plus its
// paper-scale size and the cell-coordinate key it is addressed by.
type Chunk struct {
	Coords string // e.g. "subj-000/vol-003" or "patch-2-1/visit-04"
	Value  any
	Size   int64
}

// Engine is a SciDB deployment on a simulated cluster.
type Engine struct {
	cl      *cluster.Cluster
	model   *cost.Model
	store   *objstore.Store
	cfg     Config
	startup *cluster.Handle
	// nodes are the machines hosting instances: the cluster nodes alive
	// at deployment. A manual rerun after a node death
	// (cluster.RerunAfterKills) deploys a fresh engine on the survivors.
	nodes []int
}

// New deploys SciDB on cl.
func New(cl *cluster.Cluster, store *objstore.Store, model *cost.Model, cfg Config) *Engine {
	def := DefaultConfig()
	if cfg.InstancesPerNode <= 0 {
		cfg.InstancesPerNode = def.InstancesPerNode
	}
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = def.ChunkBytes
	}
	if cfg.ChunkOverhead <= 0 {
		cfg.ChunkOverhead = def.ChunkOverhead
	}
	e := &Engine{cl: cl, model: model, store: store, cfg: cfg, nodes: cl.AliveNodes()}
	e.startup = cl.Submit(0, nil, model.Startup[cost.SciDB], nil)
	return e
}

// Instances returns the total number of SciDB instances.
func (e *Engine) Instances() int { return len(e.nodes) * e.cfg.InstancesPerNode }

func (e *Engine) nodeOf(inst int) int { return e.nodes[inst/e.cfg.InstancesPerNode] }

// Array is a stored chunked array.
type Array struct {
	Name   string
	Chunks []Chunk
	inst   []int // owning instance per chunk
	ready  []*cluster.Handle
	eng    *Engine
}

// Done returns a handle completing when the whole array is materialized.
func (a *Array) Done() *cluster.Handle { return a.eng.cl.Barrier(a.ready...) }

// OptimalChunkBytes is the empirically best chunk size (the paper's
// [1000×1000] finding for LSST images, ~12 MB of 3-plane float32 pixels).
const OptimalChunkBytes = 12 << 20

// chunkTime is the modeled duration of running op over one chunk: the
// per-chunk fixed overhead (which dominates when chunks are undersized)
// plus the algorithm time, inflated for oversized chunks whose working
// set overflows the per-instance buffer cache (the mechanism behind the
// paper's +22%/+55% at [1500²]/[2000²], Section 5.3.1).
func (e *Engine) chunkTime(op cost.Op, c Chunk) vtime.Duration {
	d := e.cfg.ChunkOverhead + e.model.AlgTime(op, c.Size)
	if c.Size > OptimalChunkBytes {
		over := float64(c.Size)/float64(OptimalChunkBytes) - 1
		d = vtime.Duration(float64(d) * (1 + 1.4*over))
	}
	return d
}

// placeChunks assigns chunks round-robin to instances.
func (e *Engine) placeChunks(n int) []int {
	inst := make([]int, n)
	for i := range inst {
		inst[i] = i % e.Instances()
	}
	return inst
}

// IngestFromArray loads chunks through the coordinator using the
// SciDB-py from_array() interface: every value crosses the Python
// boundary on the master, serially, before chunks are scattered to
// instances — the SciDB-1 path in Fig 11.
func (e *Engine) IngestFromArray(name string, chunks []Chunk) (*Array, error) {
	if len(chunks) == 0 {
		return nil, fmt.Errorf("scidb: from_array with no chunks")
	}
	a := &Array{Name: name, Chunks: chunks, inst: e.placeChunks(len(chunks)), eng: e}
	prev := e.startup
	for i, c := range chunks {
		// Serial coordinator conversion: Python per-value marshalling is
		// ~20× slower than bulk IPC.
		conv := e.model.PyIPCTime(c.Size) * 20
		h := e.cl.Submit(0, []*cluster.Handle{prev}, conv, nil)
		node := e.nodeOf(a.inst[i])
		x := e.cl.Transfer(0, node, c.Size, h)
		wr := e.cl.DiskWrite(node, c.Size, x)
		a.ready = append(a.ready, wr)
		prev = h // next chunk's conversion starts after this one
	}
	return a, nil
}

// IngestAio loads chunks with the accelerated aio_input() library: the
// caller first converts source files to CSV (expansion × the binary
// size), instances then parse the CSV in parallel and store chunks — the
// SciDB-2 path in Fig 11.
func (e *Engine) IngestAio(name string, chunks []Chunk, expansion float64) (*Array, error) {
	if len(chunks) == 0 {
		return nil, fmt.Errorf("scidb: aio_input with no chunks")
	}
	if expansion <= 0 {
		expansion = 2.5
	}
	a := &Array{Name: name, Chunks: chunks, inst: e.placeChunks(len(chunks)), eng: e}
	for i, c := range chunks {
		node := e.nodeOf(a.inst[i])
		csvBytes := int64(float64(c.Size) * expansion)
		// Convert source → CSV, fetch, parse, store: all per-instance.
		conv := e.model.FormatTime(c.Size) + e.model.TSVTime(csvBytes)
		fetch := e.model.S3Fetch(1, csvBytes)
		parse := e.model.CSVTime(csvBytes)
		key := fmt.Sprintf("%s/aio%d", name, i)
		h := e.cl.Submit(node, []*cluster.Handle{e.startup}, e.model.Jitter(key, conv+fetch+parse), nil)
		a.ready = append(a.ready, e.cl.DiskWrite(node, c.Size, h))
	}
	return a, nil
}

// Filter applies a native AFL selection. When aligned is false the
// predicate cuts across the chunk layout and every chunk is read,
// sub-set, and reassembled into result chunks (extra work over the scan);
// aligned selections just drop whole chunks.
func (a *Array) Filter(name string, aligned bool, keep func(Chunk) bool) *Array {
	e := a.eng
	out := &Array{Name: name, eng: e}
	for i, c := range a.Chunks {
		node := e.nodeOf(a.inst[i])
		rd := e.cl.DiskRead(node, c.Size, a.ready[i])
		d := e.chunkTime(cost.Filter, c)
		if !aligned {
			// Extract cells and rebuild output chunks.
			d += 2*e.model.AlgTime(cost.Filter, c.Size) + e.cfg.ChunkOverhead
		}
		h := e.cl.Submit(node, []*cluster.Handle{rd}, e.model.Jitter(name+c.Coords, d), nil)
		if keep(c) {
			out.Chunks = append(out.Chunks, c)
			out.inst = append(out.inst, a.inst[i])
			out.ready = append(out.ready, h)
		} else {
			// The scan work still happened; fold it into the barrier.
			out.ready = append(out.ready, h)
		}
	}
	return out
}

// Aggregate groups chunks by groupKey and combines each group with a
// native aggregate (e.g. avg along the volume dimension): chunk-local
// partials run in parallel, then partials stream to the group's home
// instance for a cheap final combine. This is SciDB's specialized fast
// path (Fig 12b).
func (a *Array) Aggregate(name string, op cost.Op, groupKey func(Chunk) string, combine func(key string, group []Chunk) Chunk) *Array {
	e := a.eng
	type member struct {
		idx int
		h   *cluster.Handle
	}
	groups := make(map[string][]member)
	var order []string
	for i, c := range a.Chunks {
		k := groupKey(c)
		node := e.nodeOf(a.inst[i])
		rd := e.cl.DiskRead(node, c.Size, a.ready[i])
		// Chunk-local partial aggregate.
		h := e.cl.Submit(node, []*cluster.Handle{rd}, e.model.Jitter(name+c.Coords, e.chunkTime(op, c)), nil)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], member{i, h})
	}
	sort.Strings(order)
	out := &Array{Name: name, eng: e}
	for gi, k := range order {
		ms := groups[k]
		home := gi % e.Instances()
		homeNode := e.nodeOf(home)
		var deps []*cluster.Handle
		var gchunks []Chunk
		for _, m := range ms {
			// Partials are tiny relative to chunk data; transfer cost is
			// the partial size (~chunk size / group cardinality).
			partial := a.Chunks[m.idx].Size / int64(len(ms))
			deps = append(deps, e.cl.Transfer(e.nodeOf(a.inst[m.idx]), homeNode, partial, m.h))
			gchunks = append(gchunks, a.Chunks[m.idx])
		}
		nc := combine(k, gchunks)
		h := e.cl.Submit(homeNode, deps, e.cfg.ChunkOverhead+e.model.AlgTime(op, nc.Size), nil)
		out.Chunks = append(out.Chunks, nc)
		out.inst = append(out.inst, home)
		out.ready = append(out.ready, h)
	}
	return out
}

// Stream pipes every chunk through an external process via the stream()
// interface: the chunk is encoded as TSV, handed to the process, and the
// TSV result parsed back — the only way to run legacy Python against
// SciDB data (Section 4.1).
func (a *Array) Stream(name string, op cost.Op, f func(Chunk) Chunk) *Array {
	e := a.eng
	out := &Array{Name: name, eng: e, inst: append([]int(nil), a.inst...)}
	for i, c := range a.Chunks {
		node := e.nodeOf(a.inst[i])
		rd := e.cl.DiskRead(node, c.Size, a.ready[i])
		nc := f(c)
		// TSV is ~2.5× the binary size; encode, cross the process
		// boundary both ways, decode.
		tsvBytes := int64(float64(c.Size) * 2.5)
		d := e.chunkTime(op, c) +
			2*e.model.TSVTime(tsvBytes) +
			2*e.model.PyIPCTime(tsvBytes)
		h := e.cl.Submit(node, []*cluster.Handle{rd}, e.model.Jitter(name+c.Coords, d), nil)
		out.Chunks = append(out.Chunks, nc)
		out.ready = append(out.ready, h)
	}
	return out
}

// IterativeAQL runs an iterative computation expressed as AQL statements:
// each iteration applies step to every chunk group and — in the official
// release — materializes the full intermediate array to disk and reads it
// back, for each of the statements an iteration comprises (mean, std,
// filter-outliers, merge: 4 passes). With cfg.Incremental, later
// iterations touch only the fraction of chunks that changed, the
// optimization the paper cites for a 6× improvement (Section 5.2.4).
//
// The step function receives the iteration number and the full chunk set
// and mutates/returns the next chunk set (real computation).
func (a *Array) IterativeAQL(name string, iters int, op cost.Op, step func(iter int, chunks []Chunk) []Chunk) *Array {
	e := a.eng
	const passesPerIter = 4
	cur := &Array{Name: name, eng: e,
		Chunks: append([]Chunk(nil), a.Chunks...),
		inst:   append([]int(nil), a.inst...),
		ready:  append([]*cluster.Handle(nil), a.ready...),
	}
	for it := 0; it < iters; it++ {
		next := step(it, cur.Chunks)
		// Each chunk's pass chain is carried, and the chunks folded, as
		// values: no handle outlives this loop but the barrier.
		var done cluster.Handle
		for i := range next {
			inst := cur.inst[i%len(cur.inst)]
			node := e.nodeOf(inst)
			c := cur.Chunks[i%len(cur.Chunks)]
			h := *cur.ready[i%len(cur.ready)]
			for pass := 0; pass < passesPerIter; pass++ {
				// Each AQL statement parses, plans, re-opens chunk
				// iterators, and updates the temporary array's chunk
				// map: a large per-chunk-per-statement coordination
				// overhead on top of the scan itself (the reason small
				// chunks are ~3× slower, Section 5.3.1).
				full := 18*e.cfg.ChunkOverhead + e.chunkTime(op, c)
				frac := 1.0
				if e.cfg.Incremental && !(it == 0 && pass == 0) {
					// Incremental iterative processing touches only the
					// chunks whose cells changed (Soroush et al.): both
					// the data and the coordination shrink.
					frac = 1.0 / 8
				}
				eff := int64(float64(c.Size) * frac)
				rd := e.cl.DiskRead(node, eff, &h)
				run := e.cl.Submit(node, []*cluster.Handle{rd},
					e.model.Jitter(name+"/it"+strconv.Itoa(it)+"/p"+strconv.Itoa(pass)+"/"+c.Coords,
						vtime.Duration(float64(full)*frac)), nil)
				h = *e.cl.DiskWrite(node, eff, run)
			}
			done.End, done.Err = max(done.End, h.End), cmp.Or(done.Err, h.Err)
		}
		// AQL statements are barriers: the next iteration starts after
		// every chunk of this one is materialized.
		bar := e.cl.Barrier(&done)
		nReady := make([]*cluster.Handle, len(next))
		for i := range nReady {
			nReady[i] = bar
		}
		cur = &Array{Name: name, eng: e, Chunks: next, inst: e.placeChunks(len(next)), ready: nReady}
	}
	return cur
}
