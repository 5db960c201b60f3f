// Package myria implements a Myria-like shared-nothing parallel DBMS:
// relations hash-partitioned across per-node worker processes backed by a
// PostgreSQL-style local store, iterator-style operators that pipeline
// tuples without materializing, exchange (shuffle/broadcast) operators,
// and Python user-defined functions over BLOB attributes.
//
// Properties the paper's results hinge on, implemented explicitly:
//
//   - Ingest stores tuples in node-local storage; scans with predicates
//     push selection down to the local store, skipping the Python
//     boundary entirely (Fig 12a: fastest filter).
//   - Ingest reads a CSV list of object keys directly — no master-side
//     bucket enumeration — making ingest setup faster than Spark (Fig 11).
//   - The number of worker processes per node is a tuning knob; beyond
//     ~half the cores, workers contend for memory bandwidth and CPU and
//     per-worker efficiency drops (Fig 13: 4 workers per 8-core node wins).
//   - Three memory-management strategies (Section 5.3.2 / Fig 15):
//     pipelined execution (fastest, fails with OOM under pressure),
//     per-operator materialization to disk, and splitting the work into
//     multiple queries over input chunks.
package myria

import (
	"fmt"
	"hash/fnv"
	"slices"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/objstore"
	"imagebench/internal/vtime"
)

// Tuple is one relational tuple: a string key (the non-BLOB attributes,
// e.g. subject and image IDs) and a BLOB value (a serialized array),
// annotated with the paper-scale size of the BLOB.
type Tuple struct {
	Key   string
	Value any
	Size  int64
}

// MemoryMode selects the engine's memory-management strategy (Fig 15).
type MemoryMode int

const (
	// Pipelined streams tuples between operators without materializing.
	// Fastest, but every live intermediate occupies memory at once and
	// queries fail with OOM under pressure.
	Pipelined MemoryMode = iota
	// Materialized writes each operator's output to local disk and reads
	// it back, bounding memory to one operator at a time.
	Materialized
	// MultiQuery is Materialized plus the caller splitting the input into
	// chunks executed as separate queries (see RunChunked helpers in the
	// pipelines); each chunk pays query startup again.
	MultiQuery
)

func (m MemoryMode) String() string {
	switch m {
	case Pipelined:
		return "pipelined"
	case Materialized:
		return "materialized"
	case MultiQuery:
		return "multi-query"
	}
	return "mode?"
}

// Config tunes the engine.
type Config struct {
	WorkersPerNode int        // Myria worker processes per machine
	Mode           MemoryMode // memory-management strategy
}

// DefaultConfig returns the paper's tuned setting: 4 workers per node,
// pipelined execution.
func DefaultConfig() Config { return Config{WorkersPerNode: 4, Mode: Pipelined} }

// Engine is a Myria deployment on a simulated cluster.
type Engine struct {
	cl      *cluster.Cluster
	model   *cost.Model
	store   *objstore.Store
	cfg     Config
	startup *cluster.Handle
	catalog map[string]*Relation
	queries int
	// nodes are the machines hosting worker processes: the cluster
	// nodes alive when the engine was deployed, ascending (shuffle and
	// reserve rely on it). A restart after a node kill
	// (cluster.RerunAfterKills) deploys a fresh engine that places
	// workers only on the survivors.
	nodes []int
}

// New deploys Myria on cl.
func New(cl *cluster.Cluster, store *objstore.Store, model *cost.Model, cfg Config) *Engine {
	if cfg.WorkersPerNode <= 0 {
		cfg.WorkersPerNode = DefaultConfig().WorkersPerNode
	}
	e := &Engine{cl: cl, model: model, store: store, cfg: cfg, catalog: make(map[string]*Relation),
		nodes: cl.AliveNodes()}
	e.startup = cl.Submit(0, nil, model.Startup[cost.Myria], nil)
	return e
}

// Workers returns the total number of Myria worker processes.
func (e *Engine) Workers() int { return len(e.nodes) * e.cfg.WorkersPerNode }

// nodeOf maps a logical worker to its machine.
func (e *Engine) nodeOf(worker int) int { return e.nodes[worker/e.cfg.WorkersPerNode] }

// workerSpeed returns one Myria worker process's effective speed in
// core-equivalents, as a function of how many workers share an 8-core
// node. Myria workers are internally multi-threaded, so few workers still
// use several cores each, but a single process cannot drive the whole
// machine; beyond 4 workers they contend for memory bandwidth and disk
// and aggregate throughput declines. The curve reproduces the paper's
// Fig 13: node capacity peaks at 4 workers (3+5.5+8+6 core-equivalents
// for 1, 2, 4, 8 workers).
func (e *Engine) workerSpeed() float64 {
	switch {
	case e.cfg.WorkersPerNode <= 1:
		return 3.0
	case e.cfg.WorkersPerNode == 2:
		return 2.75
	case e.cfg.WorkersPerNode <= 4:
		return 8.0 / float64(e.cfg.WorkersPerNode)
	default:
		return 6.0 / float64(e.cfg.WorkersPerNode)
	}
}

// work converts a one-core modeled duration into this deployment's
// per-worker duration.
func (e *Engine) work(d vtime.Duration) vtime.Duration {
	return vtime.Duration(float64(d) / e.workerSpeed())
}

// Relation is a hash-partitioned distributed relation. Materialized
// relations live either in worker memory (query intermediates) or in the
// node-local store (ingested base tables, onDisk=true).
type Relation struct {
	Name   string
	parts  [][]Tuple // one slice per logical worker
	ready  []*cluster.Handle
	onDisk bool
	eng    *Engine
}

// Tuples returns all tuples across workers (worker order, then insertion
// order), as a driver reads a finished relation back without charging a
// gather (Query.Collect charges one).
func (r *Relation) Tuples() []Tuple { return slices.Concat(r.parts...) }

// Bytes returns total paper-scale BLOB bytes.
func (r *Relation) Bytes() int64 {
	var n int64
	for _, p := range r.parts {
		for _, t := range p {
			n += t.Size
		}
	}
	return n
}

// partBytes returns the BLOB bytes held by one worker.
func (r *Relation) partBytes(w int) int64 {
	var n int64
	for _, t := range r.parts[w] {
		n += t.Size
	}
	return n
}

func (e *Engine) hashWorker(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(e.Workers()))
}

// Ingest downloads the objects under prefix from the object store in
// parallel across all workers (Myria reads a CSV list of files — no
// master-side enumeration), decodes them, and stores the resulting tuples
// in node-local storage under name. The decode function runs per object.
func (e *Engine) Ingest(name, prefix string, decode func(objstore.Object) []Tuple) (*Relation, error) {
	keys := e.store.List(prefix)
	if len(keys) == 0 {
		return nil, fmt.Errorf("myria: no objects under %q", prefix)
	}
	// Worker w downloads and decodes keys w, w+W, …; its tuples are then
	// dealt round-robin (Myria's RoundRobin partitioning) so base tables
	// are balanced, once every partition's size is known. Exchanges later
	// hash-partition by grouping key as usual; ingest traffic is
	// accounted below.
	W := e.Workers()
	rel := emptyLike(e, name)
	rel.onDisk = true
	decoded := make([][]Tuple, len(keys))
	n := 0
	for w := 0; w < W; w++ {
		var bytes int64
		for i := w; i < len(keys); i += W {
			obj, err := e.store.Get(keys[i])
			if err != nil {
				return nil, err
			}
			bytes += obj.Size()
			decoded[i] = decode(obj)
			n += len(decoded[i])
		}
		dl := e.model.S3Fetch((len(keys)+W-1-w)/W, bytes) + e.model.FormatTime(bytes)
		fetch := e.cl.Submit(e.nodeOf(w), []*cluster.Handle{e.startup}, e.work(e.model.Jitter(name+keys0(keys[min(w, len(keys)):]), dl)), nil)
		// Write to node-local PostgreSQL.
		rel.ready[w] = e.cl.DiskWrite(e.nodeOf(w), bytes, fetch)
	}
	for w := range rel.parts {
		rel.parts[w] = make([]Tuple, 0, (n+W-1-w)/W)
	}
	next := 0
	for w := 0; w < W; w++ {
		for i := w; i < len(keys); i += W {
			for _, t := range decoded[i] {
				rel.parts[next%W] = append(rel.parts[next%W], t)
				next++
			}
		}
	}
	// Ingest shuffle traffic: on average (W-1)/W of the bytes move.
	total := rel.Bytes()
	if e.Workers() > 1 {
		moved := total * int64(e.Workers()-1) / int64(e.Workers())
		per := moved / int64(len(e.nodes))
		for i, n := range e.nodes {
			rel.ready = append(rel.ready, e.cl.Transfer(n, e.nodes[(i+1)%len(e.nodes)], per, e.startup))
		}
	}
	// A node dying during ingest aborts the load: the coordinator sees
	// the worker failure and reports it (the caller restarts from
	// scratch, as Myria offers no mid-query recovery).
	for _, h := range rel.ready {
		if h.Err != nil {
			return nil, fmt.Errorf("myria: ingest %q: %w", name, h.Err)
		}
	}
	e.catalog[name] = rel
	return rel, nil
}

func keys0(keys []string) string {
	if len(keys) == 0 {
		return ""
	}
	return keys[0]
}

// RelationFromTuples registers an in-memory relation built from existing
// tuples (e.g. the materialized results of earlier chunk queries),
// hash-partitioned by key. Its partitions become available when the query
// starts; no ingest cost is charged beyond the hash-partition shuffle that
// already happened when the tuples were produced.
func (e *Engine) RelationFromTuples(q *Query, name string, tuples []Tuple) *Relation {
	rel := emptyLike(e, name)
	count := make([]int, e.Workers())
	for _, t := range tuples {
		count[e.hashWorker(t.Key)]++
	}
	for w, c := range count {
		rel.parts[w] = make([]Tuple, 0, c)
	}
	for _, t := range tuples {
		w := e.hashWorker(t.Key)
		rel.parts[w] = append(rel.parts[w], t)
	}
	for w := range rel.ready {
		rel.ready[w] = q.start
	}
	e.catalog[name] = rel
	return rel
}
