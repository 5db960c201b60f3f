// Package spark implements a Spark-like cluster-computing engine: lazily
// evaluated resilient distributed datasets (RDDs) of key–value pairs,
// narrow transformations pipelined within a stage, stage barriers at
// shuffle boundaries, broadcast variables, and memory-tracked caching with
// spill-to-disk.
//
// The properties the paper's results hinge on are implemented explicitly:
//
//   - The driver enumerates input objects on the master before scheduling
//     parallel downloads (slower ingest setup than Myria, Fig 11).
//   - Default partitioning mimics "one partition per HDFS block": few,
//     large partitions that under-utilize the cluster until the user tunes
//     partition counts (Fig 14).
//   - Every user closure call pays the Python-worker serialization tax
//     (Fig 12a: filter is ~10× slower than Myria's pushed-down selection).
//   - Stages barrier at shuffles; skewed task durations accumulate per
//     stage, unlike Dask's pipelined per-subject chains (Fig 10c).
//   - Memory pressure causes spill to disk rather than query failure
//     (Section 5.3.2), at a disk-bandwidth cost.
package spark

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"strconv"
	"strings"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/objstore"
	"imagebench/internal/vtime"
)

// Pair is one record: a string key and an arbitrary value, annotated with
// the paper-scale size of the value in bytes.
type Pair struct {
	Key   string
	Value any
	Size  int64
}

// hashPartition assigns a key to one of n partitions.
func hashPartition(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// Session is a Spark driver connected to a simulated cluster.
type Session struct {
	cl     *cluster.Cluster
	model  *cost.Model
	store  *objstore.Store
	driver vtime.GapTimeline // serial task-dispatch bottleneck
	// DefaultPartitionBytes mimics HDFS block sizing: the default number
	// of input partitions is ceil(total bytes / DefaultPartitionBytes).
	DefaultPartitionBytes int64
	startup               *cluster.Handle
	spilledBytes          int64

	// Executor-failure state (see failure.go): dead nodes no longer host
	// partitions, and epoch increments invalidate materialized state so
	// the next action repairs lost partitions from lineage. failedAt is
	// the latest cluster-level kill adopted — recovery work is anchored
	// after it so recomputation cannot use pre-failure idle time.
	dead     map[int]bool
	epoch    int
	failedAt vtime.Time
}

// NewSession starts a Spark driver on cl, charging Spark's startup cost.
func NewSession(cl *cluster.Cluster, store *objstore.Store, model *cost.Model) *Session {
	s := &Session{
		cl:                    cl,
		model:                 model,
		store:                 store,
		DefaultPartitionBytes: 1 << 30,
	}
	s.startup = cl.Submit(0, nil, model.Startup[cost.Spark], nil)
	return s
}

// Cluster returns the underlying simulated cluster.
func (s *Session) Cluster() *cluster.Cluster { return s.cl }

// SpilledBytes reports how many paper-scale bytes were spilled to disk.
func (s *Session) SpilledBytes() int64 { return s.spilledBytes }

// dispatch charges the driver's serial per-task scheduling cost and
// returns the time the task may start.
func (s *Session) dispatch(ready vtime.Time) vtime.Time {
	_, end := s.driver.Reserve(ready, s.model.SchedTime(cost.Spark, s.cl.Nodes()))
	return end
}

// UDF is a user-defined function applied to records — in the paper, Python
// code from the reference implementation passed as a lambda. Op selects
// the calibrated throughput; F performs the real computation (1→N records;
// nil output drops the record).
type UDF struct {
	Name   string
	Op     cost.Op
	F      func(Pair) []Pair
	Native bool // true for JVM-native ops that skip the Python tax
}

// opKind discriminates RDD lineage nodes.
type opKind int

const (
	opSource opKind = iota
	opNarrow
	opShuffle
)

// RDD is a lazily evaluated distributed dataset. Transformations build
// lineage; actions (Collect, Materialize) trigger staged execution.
type RDD struct {
	s      *Session
	kind   opKind
	name   string
	parent *RDD
	udf    *UDF // narrow op
	nParts int

	// Source fields.
	keys   []string
	decode func(objstore.Object) []Pair

	// Shuffle fields.
	combineOp cost.Op
	combine   func(key string, values []Pair) []Pair

	// extraDeps are external handles (e.g. broadcasts) this RDD's tasks
	// must wait for.
	extraDeps []*cluster.Handle

	// Materialized state.
	done   bool
	epoch  int // session failure epoch the state was computed in
	parts  [][]Pair
	nodes  []int // hosting node per partition
	ready  []*cluster.Handle
	cached bool
	// spilled[i] is true when partition i lives on disk, not memory.
	spilled []bool
}

// Objects creates an RDD from the objects under prefix in the session's
// store. nParts ≤ 0 selects the HDFS-block-style default. The decode
// function turns one object into records; it runs on the workers.
func (s *Session) Objects(prefix string, nParts int, decode func(objstore.Object) []Pair) *RDD {
	keys := s.store.List(prefix)
	if nParts <= 0 {
		total := s.store.TotalModelBytes(prefix)
		nParts = int((total + s.DefaultPartitionBytes - 1) / s.DefaultPartitionBytes)
		if nParts < 1 {
			nParts = 1
		}
	}
	if nParts > len(keys) && len(keys) > 0 {
		nParts = len(keys)
	}
	return &RDD{s: s, kind: opSource, name: "objects:" + prefix, nParts: nParts, keys: keys, decode: decode}
}

// Parallelize creates an already-materialized RDD from driver-side
// records, shipping each partition from the master to its worker — the
// sc.parallelize() API.
func (s *Session) Parallelize(name string, pairs []Pair, nParts int) *RDD {
	if nParts <= 0 {
		nParts = s.cl.Nodes()
	}
	r := &RDD{s: s, kind: opSource, name: "parallelize:" + name, nParts: nParts, done: true, epoch: s.epoch}
	r.parts = make([][]Pair, nParts)
	r.nodes = make([]int, nParts)
	r.ready = make([]*cluster.Handle, nParts)
	for i, p := range pairs {
		r.parts[i%nParts] = append(r.parts[i%nParts], p)
	}
	for p := 0; p < nParts; p++ {
		node := s.nodeFor(p)
		var bytes int64
		for _, rec := range r.parts[p] {
			bytes += rec.Size
		}
		ship := s.cl.Transfer(0, node, bytes, s.startup)
		r.nodes[p] = node
		r.ready[p] = s.cl.Submit(node, []*cluster.Handle{ship}, s.model.GobTime(bytes), nil)
	}
	return r
}

// Map applies udf to each record (1→N). It is a narrow transformation:
// no shuffle, pipelined with adjacent narrow ops in the same stage.
func (r *RDD) Map(udf UDF) *RDD {
	return &RDD{s: r.s, kind: opNarrow, name: udf.Name, parent: r, udf: &udf, nParts: r.nParts}
}

// GroupByKey shuffles records so all values of one key land in one
// partition, then applies the combining UDF (key, grouped values) →
// records, charged at op's throughput over the group bytes (plus the
// Python tax). nParts ≤ 0 keeps the parent's partitioning. It introduces a
// stage barrier: reducers wait for every mapper.
func (r *RDD) GroupByKey(name string, op cost.Op, nParts int, combine func(key string, values []Pair) []Pair) *RDD {
	if nParts <= 0 {
		nParts = r.nParts
	}
	return &RDD{s: r.s, kind: opShuffle, name: name, parent: r, nParts: nParts,
		combineOp: op, combine: combine}
}

// Cache marks the RDD's partitions for retention in worker memory after
// materialization (with spill to disk under memory pressure).
func (r *RDD) Cache() *RDD { r.cached = true; return r }

// After makes this RDD's tasks wait for the given handles (used for
// broadcast variables consumed by its closures).
func (r *RDD) After(hs ...*cluster.Handle) *RDD {
	r.extraDeps = append(r.extraDeps, hs...)
	return r
}

// Broadcast ships value (of paper-scale size bytes) to every node via a
// distribution tree and returns a handle later stages may depend on.
func (s *Session) Broadcast(size int64, deps ...*cluster.Handle) *cluster.Handle {
	deps = append(deps, s.startup)
	return s.cl.Broadcast(0, size, deps...)
}

// Materialize forces evaluation and returns a handle for the completion of
// the final stage.
func (r *RDD) Materialize() (*cluster.Handle, error) {
	if err := r.compute(); err != nil {
		return nil, err
	}
	h := r.s.cl.Barrier(r.ready...)
	r.resetLineage()
	return h, nil
}

// resetLineage drops the materialized state of uncached narrow and source
// ancestors once an action completes: a later action over shared lineage
// recomputes them, exactly as Spark does (Section 5.3.3 of the paper —
// caching the input avoids re-downloading it). Shuffle outputs persist
// (Spark keeps shuffle files on local disk), as do cached RDDs.
func (r *RDD) resetLineage() {
	for cur := r; cur != nil; cur = cur.parent {
		if cur.cached || cur.kind == opShuffle || !cur.done {
			continue
		}
		if strings.HasPrefix(cur.name, "parallelize:") {
			continue // driver-side data is always available
		}
		cur.done = false
		cur.parts = nil
		cur.nodes = nil
		cur.ready = nil
	}
}

// Collect materializes the RDD and gathers all records on the master
// (node 0), as Spark's collect() does. A node dying between computing a
// partition and shipping it to the driver is adopted as an executor
// failure: lineage repair recomputes what it hosted and the gather is
// retried.
func (r *RDD) Collect() ([]Pair, *cluster.Handle, error) {
	for attempt := 0; ; attempt++ {
		if err := r.compute(); err != nil {
			return nil, nil, err
		}
		var gathered cluster.Handle // every partition's transfer, folded
		for i, part := range r.parts {
			var bytes int64
			for _, p := range part {
				bytes += p.Size
			}
			x := r.s.cl.Transfer(r.nodes[i], 0, bytes, r.ready[i])
			gathered.End, gathered.Err = max(gathered.End, x.End), cmp.Or(gathered.Err, x.Err)
		}
		h := r.s.cl.Barrier(&gathered)
		if h.Err != nil && attempt < r.s.cl.Nodes() && r.s.adoptNodeFailure(h.Err) {
			continue // epoch bumped: the next compute() repairs from lineage
		}
		if h.Err != nil {
			return nil, nil, h.Err
		}
		out := slices.Concat(r.parts...)
		r.resetLineage()
		return out, h, nil
	}
}

// compute materializes r (and, recursively, its lineage).
func (r *RDD) compute() error {
	if r.done {
		if r.epoch != r.s.epoch {
			return r.repair()
		}
		return nil
	}
	switch r.kind {
	case opSource:
		return r.computeSource()
	case opNarrow:
		return r.computeNarrow()
	case opShuffle:
		return r.computeShuffle()
	}
	return fmt.Errorf("spark: unknown op kind %d", r.kind)
}

// computeSource schedules parallel object fetches. The driver first
// enumerates the keys (a serial cost per object on the master), then
// workers download their partitions from the object store in parallel.
func (r *RDD) computeSource() error {
	s := r.s
	// Master-side enumeration of the bucket listing (Section 5.2.1: the
	// driver lists the bucket before scheduling parallel downloads).
	enumCost := vtime.Duration(len(r.keys)) * s.model.S3ListPerKey
	enum := s.cl.Submit(0, []*cluster.Handle{s.startup}, enumCost, nil)

	r.parts = make([][]Pair, r.nParts)
	r.nodes = make([]int, r.nParts)
	r.ready = make([]*cluster.Handle, r.nParts)
	for p := 0; p < r.nParts; p++ {
		if err := r.fetchPartition(p, s.nodeFor(p), enum, nil); err != nil {
			return err
		}
		p := p
		if err := r.retryLost(p, func(attempt int) error {
			return r.fetchPartition(p, s.nodeFor(p+attempt), enum, s.afterFailure())
		}); err != nil {
			return err
		}
	}
	r.done = true
	r.epoch = s.epoch
	r.finishCache()
	return nil
}

// fetchPartition downloads and decodes source partition p onto node.
// Round-robin keys into partitions, partitions onto nodes. A non-nil
// after anchors the download (recovery re-fetches wait for the failure
// they repair).
func (r *RDD) fetchPartition(p, node int, enum, after *cluster.Handle) error {
	s := r.s
	if after != nil {
		enum = s.cl.Barrier(enum, after)
	}
	var fetchBytes int64
	decoded := make([][]Pair, 0, (len(r.keys)+r.nParts-1-p)/r.nParts) // keys p, p+nParts, …
	for i := p; i < len(r.keys); i += r.nParts {
		obj, err := s.store.Get(r.keys[i])
		if err != nil {
			return err
		}
		fetchBytes += obj.Size()
		decoded = append(decoded, r.decode(obj))
	}
	// Each object fetch pays GET latency; decoding crosses into the
	// Python worker (the input records are pickled arrays).
	dl := s.model.S3Fetch(len(decoded), fetchBytes) + s.model.FormatTime(fetchBytes) + s.model.PyIPCTime(fetchBytes)
	deps := append([]*cluster.Handle{{End: start(s, enum, r.extraDeps)}}, r.extraDeps...)
	r.nodes[p] = node
	r.parts[p] = slices.Concat(decoded...)
	r.ready[p] = s.cl.Submit(node, deps, s.model.Jitter(r.name+keys0(r.keys[min(p, len(r.keys)):]), dl), nil)
	return nil
}

// start runs the driver dispatch after the given handles.
func start(s *Session, h *cluster.Handle, extra []*cluster.Handle) vtime.Time {
	all := append([]*cluster.Handle{h}, extra...)
	return s.dispatch(cluster.After(all...))
}

func keys0(keys []string) string {
	if len(keys) == 0 {
		return ""
	}
	return keys[0]
}

// narrowChain collects the maximal chain of narrow ops ending at r; base
// is the stage input (a source, a shuffle, or an already-materialized
// RDD).
func (r *RDD) narrowChain() (chain []*RDD, base *RDD) {
	base = r
	for base.kind == opNarrow {
		chain = append([]*RDD{base}, chain...)
		base = base.parent
		if base.done {
			break
		}
	}
	return chain, base
}

// computeNarrow runs the chain of narrow ops ending at r as one stage:
// each partition is one task executing the whole chain, scheduled on the
// node hosting the parent partition.
func (r *RDD) computeNarrow() error {
	chain, base := r.narrowChain()
	if err := base.compute(); err != nil {
		return err
	}
	r.parts = make([][]Pair, base.nParts)
	r.nodes = append([]int(nil), base.nodes...)
	r.ready = make([]*cluster.Handle, base.nParts)
	r.nParts = base.nParts
	// A retry below may adopt a node death and bump the epoch; partitions
	// finished earlier in the loop can still sit on that node, so the
	// stage is current only as of the epoch it started in.
	e0 := r.s.epoch
	for p := range base.parts {
		r.narrowPartition(chain, base, p, nil)
		p := p
		if err := r.retryLost(p, func(int) error {
			// The stage input on the dead node is gone with the task:
			// repairing the base (epoch mismatch) recomputes exactly the
			// lost partitions from lineage, then the task reruns on the
			// base partition's new home.
			if err := base.compute(); err != nil {
				return err
			}
			r.narrowPartition(chain, base, p, r.s.afterFailure())
			return nil
		}); err != nil {
			return err
		}
	}
	// Intermediate RDDs in the chain stay unmaterialized: a branch off an
	// uncached intermediate recomputes its lineage, exactly as in Spark
	// (the behaviour Section 5.3.3 of the paper discusses).
	r.done = true
	r.epoch = e0
	r.finishCache()
	return nil
}

// narrowPartition runs the whole narrow chain over base partition p as
// one task on the node hosting that partition. A non-nil after anchors
// the task (recovery recomputation waits for the failure it repairs).
func (r *RDD) narrowPartition(chain []*RDD, base *RDD, p int, after *cluster.Handle) {
	s := r.s
	records := base.parts[p]
	var dur vtime.Duration
	inputReady := base.ready[p]
	if after != nil {
		inputReady = s.cl.Barrier(inputReady, after)
	}
	if base.spilled != nil && base.spilled[p] {
		// The cached partition lives on disk: re-read it.
		var bytes int64
		for _, rec := range records {
			bytes += rec.Size
		}
		inputReady = s.cl.DiskRead(base.nodes[p], bytes, inputReady)
		dur += s.model.GobTime(bytes)
	}
	out := records
	for _, op := range chain {
		var next []Pair
		for i, rec := range out {
			dur += op.taskCost(rec)
			res := op.udf.F(rec)
			if len(next)+len(res) > cap(next) {
				// Room for every record still to come at this one's
				// fan-out: one allocation when the fan-out is uniform.
				next = slices.Grow(next, len(res)*(len(out)-i))
			}
			next = append(next, res...)
			for _, nr := range res {
				if !op.udf.Native {
					dur += s.model.PyIPCTime(nr.Size)
				}
			}
		}
		out = next
	}
	key := r.name + "/p" + strconv.Itoa(p)
	deps := append([]*cluster.Handle{{End: start(s, inputReady, r.extraDeps)}, inputReady}, r.extraDeps...)
	r.nodes[p] = base.nodes[p]
	r.parts[p] = out
	r.ready[p] = s.cl.Submit(base.nodes[p], deps, s.model.Jitter(key, dur), nil)
}

// taskCost is the modeled per-record cost of a narrow op: the algorithm
// time plus (for non-native ops) the Python serialization of the input.
func (r *RDD) taskCost(rec Pair) vtime.Duration {
	d := r.s.model.AlgTime(r.udf.Op, rec.Size)
	if !r.udf.Native {
		d += r.s.model.PyIPCTime(rec.Size)
	}
	return d
}

// shuffleInput is one reduce partition's input: its records in
// map-partition order, and one block per map partition that sent any.
type shuffleInput struct {
	recs   []Pair
	blocks []shuffleBlock
}

// shuffleBlock is the bytes map partition mp sends one reduce partition.
type shuffleBlock struct {
	mp    int
	bytes int64
}

// mapSide buckets each parent partition's records by reduce partition
// and schedules the map-side shuffle writes; it returns every reduce
// partition's input and the stage barrier every reducer waits on. A
// non-nil after anchors the writes (regenerating shuffle files lost with
// a dead node cannot happen before the node died).
func (r *RDD) mapSide(after *cluster.Handle) ([]shuffleInput, *cluster.Handle) {
	s := r.s
	parent := r.parent
	// Count first, so each input's records and blocks are sized once.
	size := make([]struct{ recs, blocks, last int }, r.nParts) // last: 1 + the last map partition counted
	for mp, part := range parent.parts {
		for _, rec := range part {
			c := &size[hashPartition(rec.Key, r.nParts)]
			c.recs++
			if c.last != mp+1 {
				c.last, c.blocks = mp+1, c.blocks+1
			}
		}
	}
	in := make([]shuffleInput, r.nParts)
	for rp, c := range size {
		in[rp] = shuffleInput{make([]Pair, 0, c.recs), make([]shuffleBlock, 0, c.blocks)}
	}
	var mapDone cluster.Handle // every map task, folded
	for mp := range parent.parts {
		var bytes int64
		for _, rec := range parent.parts[mp] {
			to := &in[hashPartition(rec.Key, r.nParts)]
			if n := len(to.blocks); n == 0 || to.blocks[n-1].mp != mp {
				to.blocks = append(to.blocks, shuffleBlock{mp: mp})
			}
			to.blocks[len(to.blocks)-1].bytes += rec.Size
			to.recs = append(to.recs, rec)
			bytes += rec.Size
		}
		// Map-side shuffle write: serialize + write shuffle files.
		dur := s.model.GobTime(bytes)
		wr := s.cl.DiskWrite(parent.nodes[mp], bytes, parent.ready[mp], after)
		start := s.dispatch(cluster.After(wr))
		h := s.cl.Submit(parent.nodes[mp], []*cluster.Handle{{End: start}, wr}, dur, nil)
		mapDone.End, mapDone.Err = max(mapDone.End, h.End), cmp.Or(mapDone.Err, h.Err)
	}
	return in, s.cl.Barrier(&mapDone)
}

// reducePartition fetches reduce partition rp's blocks, groups by key,
// and runs the combine function, spilling to disk under memory pressure.
// Successful allocations are appended to releases so the caller frees
// them once the whole stage is done (all reducers are live at once); a
// nil releases frees at return (single-partition repair).
func (r *RDD) reducePartition(rp, node int, in []shuffleInput, barrier *cluster.Handle, releases *[]func()) {
	s := r.s
	parent := r.parent
	var fetched cluster.Handle // every block's fetch, folded
	var inBytes int64
	for _, b := range in[rp].blocks {
		x := s.cl.Transfer(parent.nodes[b.mp], node, b.bytes, barrier)
		fetched.End, fetched.Err = max(fetched.End, x.End), cmp.Or(fetched.Err, x.Err)
		inBytes += b.bytes
	}
	// Groups in key order, each key's records in arrival order.
	recs := in[rp].recs
	slices.SortStableFunc(recs, func(a, b Pair) int { return strings.Compare(a.Key, b.Key) })
	// Memory pressure: if the reduce input exceeds free memory, Spark
	// spills — the task still succeeds but pays disk traffic.
	var spill *cluster.Handle
	mem := s.cl.Mem(node)
	if err := mem.Alloc(inBytes); err != nil {
		s.spilledBytes += inBytes
		spill = s.cl.DiskWrite(node, inBytes, s.cl.Barrier(&fetched))
		spill = s.cl.DiskRead(node, inBytes, spill)
	} else if releases != nil {
		n := inBytes
		*releases = append(*releases, func() { mem.Release(n) })
	} else {
		defer mem.Release(inBytes)
	}
	groups := 0
	for i := range recs {
		if i == 0 || recs[i].Key != recs[i-1].Key {
			groups++
		}
	}
	out := make([]Pair, 0, groups) // exact for one record per key
	var dur vtime.Duration
	for lo, hi := 0, 0; lo < len(recs); lo = hi {
		for hi = lo + 1; hi < len(recs) && recs[hi].Key == recs[lo].Key; hi++ {
		}
		k, vals := recs[lo].Key, recs[lo:hi:hi]
		var kb int64
		for _, v := range vals {
			kb += v.Size
		}
		dur += s.model.GobTime(kb) // deserialize shuffle blocks
		dur += s.model.AlgTime(r.combineOp, kb) + s.model.PyIPCTime(kb)
		res := r.combine(k, vals)
		for _, o := range res {
			dur += s.model.PyIPCTime(o.Size)
		}
		out = append(out, res...)
	}
	deps := append([]*cluster.Handle{&fetched, spill, barrier}, r.extraDeps...)
	dispatched := s.dispatch(cluster.After(deps...))
	key := r.name + "/r" + strconv.Itoa(rp)
	r.nodes[rp] = node
	r.parts[rp] = out
	r.ready[rp] = s.cl.Submit(node, append(deps, &cluster.Handle{End: dispatched}), s.model.Jitter(key, dur), nil)
}

// computeShuffle hash-partitions the parent's records by key, transfers
// shuffle blocks all-to-all, and runs the combine function per reduce
// partition. Reducers depend on every mapper: a stage barrier.
func (r *RDD) computeShuffle() error {
	if err := r.parent.compute(); err != nil {
		return err
	}
	s := r.s
	e0 := s.epoch // as in computeNarrow
	in, barrier := r.mapSide(nil)
	r.parts = make([][]Pair, r.nParts)
	r.nodes = make([]int, r.nParts)
	r.ready = make([]*cluster.Handle, r.nParts)
	var releases []func()
	for rp := 0; rp < r.nParts; rp++ {
		r.reducePartition(rp, s.nodeFor(rp), in, barrier, &releases)
		rp := rp
		if err := r.retryLost(rp, func(attempt int) error {
			// The dead node also hosted map outputs: repair the map
			// stage's parent (lineage recomputes its lost partitions),
			// regenerate the shuffle files, and rerun this reducer on a
			// survivor. Later reducers see the regenerated barrier.
			if err := r.parent.compute(); err != nil {
				return err
			}
			in, barrier = r.mapSide(s.afterFailure())
			r.reducePartition(rp, s.nodeFor(rp+attempt), in, barrier, &releases)
			return nil
		}); err != nil {
			return err
		}
	}
	for _, rel := range releases {
		rel()
	}
	r.done = true
	r.epoch = e0
	r.finishCache()
	return nil
}

// finishCache charges cache storage when the RDD is marked cached.
func (r *RDD) finishCache() {
	if !r.cached {
		return
	}
	r.spilled = make([]bool, len(r.parts))
	for p := range r.parts {
		r.cachePartition(p)
	}
}

// cachePartition charges cache storage for one partition, spilling it to
// disk when the hosting node's memory is exhausted.
func (r *RDD) cachePartition(p int) {
	var bytes int64
	for _, rec := range r.parts[p] {
		bytes += rec.Size
	}
	if err := r.s.cl.Mem(r.nodes[p]).Alloc(bytes); err != nil {
		// Not enough memory: cache partition on disk instead.
		r.spilled[p] = true
		r.s.spilledBytes += bytes
		r.ready[p] = r.s.cl.DiskWrite(r.nodes[p], bytes, r.ready[p])
	}
}
