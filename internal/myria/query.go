package myria

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/vtime"
)

// PyUDF is a registered Python user-defined function (or aggregate):
// real computation in F, modeled cost from Op, plus the Python-process
// IPC tax on the BLOB bytes crossing the boundary in each direction.
type PyUDF struct {
	Name string
	Op   cost.Op
	F    func(Tuple) []Tuple
}

// PyUDA is a Python user-defined aggregate applied to the grouped tuples
// of one key.
type PyUDA struct {
	Name string
	Op   cost.Op
	F    func(key string, group []Tuple) []Tuple
}

// Query is one MyriaL query executing against the engine. Operators are
// applied eagerly in submission order; the memory mode governs how
// intermediates flow between them.
type Query struct {
	eng   *Engine
	err   error
	start *cluster.Handle // query submission; every operator waits for it
	held  []heldAlloc     // pipelined-mode live intermediates
	done  cluster.Handle  // every tracked handle folded: latest end, first error
}

type heldAlloc struct {
	node  int
	bytes int64
}

// NewQuery starts a query after the given dependencies (queries in a
// MyriaL program run sequentially: pass the previous query's Finish
// handle). Each query pays a small submission cost on the coordinator
// (MultiQuery mode pays it once per chunk).
func (e *Engine) NewQuery(after ...*cluster.Handle) *Query {
	e.queries++
	deps := append([]*cluster.Handle{e.startup}, after...)
	h := e.cl.Submit(0, deps, 100*time.Millisecond, nil)
	return &Query{eng: e, start: h, done: *h}
}

// Err returns the first error the query encountered (e.g. OOM in
// pipelined mode).
func (q *Query) Err() error { return q.err }

// note records an operator-task failure — a worker node dying mid-query
// — so the query aborts with it: Myria has no mid-query recovery; the
// coordinator reports the failed query and a restart
// (cluster.RerunAfterKills) re-executes it from scratch on the
// surviving workers.
func (q *Query) note(h *cluster.Handle) *cluster.Handle {
	if h.Err != nil && q.err == nil {
		q.err = fmt.Errorf("myria: query aborted: %w", h.Err)
	}
	return h
}

// Finish releases pipelined-mode memory and returns a handle for the
// completion of the whole query.
func (q *Query) Finish() (*cluster.Handle, error) {
	for _, a := range q.held {
		q.eng.cl.Mem(a.node).Release(a.bytes)
	}
	q.held = nil
	if q.err != nil {
		return nil, q.err
	}
	return q.eng.cl.Barrier(&q.done), nil
}

// reserve models an intermediate relation coming alive. In pipelined mode
// the memory stays reserved until Finish (all operators run at once); in
// materialized modes each operator's output is written to and re-read
// from disk instead.
func (q *Query) reserve(rel *Relation) {
	if q.err != nil {
		return
	}
	e := q.eng
	switch e.cfg.Mode {
	case Pipelined:
		// Workers are laid out node by node: charge each node its
		// workers' bytes at once, in node order.
		var bytes int64
		for w := range rel.parts {
			bytes += rel.partBytes(w)
			if node := e.nodeOf(w); w+1 == len(rel.parts) || e.nodeOf(w+1) != node {
				if err := e.cl.Mem(node).Alloc(bytes); err != nil {
					q.err = fmt.Errorf("myria: query failed: %w", err)
					return
				}
				q.held = append(q.held, heldAlloc{node, bytes})
				bytes = 0
			}
		}
	case Materialized, MultiQuery:
		for w := range rel.parts {
			b := rel.partBytes(w)
			node := e.nodeOf(w)
			wr := q.note(e.cl.DiskWrite(node, b, rel.ready[w]))
			rel.ready[w] = q.note(e.cl.DiskRead(node, b, wr))
		}
	}
}

// track records operator completion handles toward the query barrier.
func (q *Query) track(rel *Relation) {
	q.done.End = max(q.done.End, cluster.After(rel.ready...))
	q.done.Err = cmp.Or(q.done.Err, cluster.FirstErr(rel.ready...))
}

// Scan reads an ingested relation from node-local storage into the
// query's pipeline.
func (q *Query) Scan(rel *Relation) *Relation {
	return q.scanWhere(rel, nil, "scan:"+rel.Name)
}

// ScanWhere reads rel with a predicate pushed down into the node-local
// store: only matching tuples enter the pipeline, and no Python boundary
// is crossed (Fig 12a).
func (q *Query) ScanWhere(rel *Relation, pred func(Tuple) bool) *Relation {
	return q.scanWhere(rel, pred, "scanwhere:"+rel.Name)
}

func (q *Query) scanWhere(rel *Relation, pred func(Tuple) bool, name string) *Relation {
	if q.err != nil {
		return emptyLike(q.eng, name)
	}
	e := q.eng
	out := emptyLike(e, name)
	for w, in := range rel.parts {
		node := e.nodeOf(w)
		kept := in[:len(in):len(in)] // a plain scan shares its input's tuples
		if pred != nil {
			kept = make([]Tuple, 0, len(in))
			for _, t := range in {
				if pred(t) {
					kept = append(kept, t)
				}
			}
		}
		var keptBytes int64
		for _, t := range kept {
			keptBytes += t.Size
		}
		deps := []*cluster.Handle{q.start}
		if w < len(rel.ready) && rel.ready[w] != nil {
			deps = append(deps, rel.ready[w])
		}
		var h *cluster.Handle
		if rel.onDisk {
			// Selection pushed down into PostgreSQL: only matching
			// records (located via the catalog) leave the local store.
			h = e.cl.DiskRead(node, keptBytes, deps...)
		} else {
			h = e.cl.Barrier(deps...)
		}
		// Native predicate evaluation at scan speed over the returned rows.
		d := e.work(e.model.Jitter(name+"/w"+strconv.Itoa(w), e.model.AlgTime(cost.Filter, keptBytes)))
		out.parts[w] = kept
		out.ready[w] = q.note(e.cl.Submit(node, []*cluster.Handle{h}, d, nil))
	}
	q.reserve(out)
	q.track(out)
	return out
}

// Apply runs a Python UDF over every tuple (1→N), in place on each
// worker's partition — a pipelined, non-exchanging operator.
func (q *Query) Apply(rel *Relation, udf PyUDF) *Relation {
	if q.err != nil {
		return emptyLike(q.eng, udf.Name)
	}
	e := q.eng
	out := emptyLike(e, udf.Name)
	for w, in := range rel.parts {
		node := e.nodeOf(w)
		var dur vtime.Duration
		var results []Tuple
		for i, t := range in {
			dur += e.model.AlgTime(udf.Op, t.Size) + e.model.PyIPCTime(t.Size)
			res := udf.F(t)
			for _, o := range res {
				dur += e.model.PyIPCTime(o.Size)
			}
			if len(results)+len(res) > cap(results) {
				// Room for every record still to come at this one's
				// fan-out: one allocation when the fan-out is uniform.
				results = slices.Grow(results, len(res)*(len(in)-i))
			}
			results = append(results, res...)
		}
		out.parts[w] = results
		key := udf.Name + "/w" + strconv.Itoa(w)
		out.ready[w] = q.note(e.cl.Submit(node, []*cluster.Handle{rel.ready[w], q.start}, e.work(e.model.Jitter(key, dur)), nil))
	}
	q.reserve(out)
	q.track(out)
	return out
}

// BroadcastJoin replicates the (small) right relation to every worker and
// joins on key prefix: each left tuple is matched with right tuples whose
// key is a prefix of the left key (e.g. mask keyed by subject joined to
// volumes keyed by subject/volume). The join itself is native.
func (q *Query) BroadcastJoin(name string, left, right *Relation, combine func(l Tuple, rs []Tuple) []Tuple) *Relation {
	if q.err != nil {
		return emptyLike(q.eng, name)
	}
	e := q.eng
	// Broadcast the right side.
	bh := q.note(e.cl.Broadcast(0, right.Bytes(), append(append([]*cluster.Handle{q.start}, right.ready...), e.startup)...))
	byPrefix := make(map[string][]Tuple)
	for _, p := range right.parts {
		for _, t := range p {
			byPrefix[t.Key] = append(byPrefix[t.Key], t)
		}
	}
	prefixes := make([]string, 0, len(byPrefix))
	for k := range byPrefix {
		prefixes = append(prefixes, k)
	}
	sort.Strings(prefixes)
	match := func(key string) []Tuple {
		for _, p := range prefixes {
			if len(p) <= len(key) && key[:len(p)] == p {
				return byPrefix[p]
			}
		}
		return nil
	}
	out := emptyLike(e, name)
	for w, ls := range left.parts {
		node := e.nodeOf(w)
		var results []Tuple
		var in int64
		for i, t := range ls {
			res := combine(t, match(t.Key))
			if len(results)+len(res) > cap(results) {
				results = slices.Grow(results, len(res)*(len(ls)-i))
			}
			results = append(results, res...)
			in += t.Size
		}
		d := e.work(e.model.Jitter(name+"/w"+strconv.Itoa(w), e.model.AlgTime(cost.Filter, in)))
		out.parts[w] = results
		out.ready[w] = q.note(e.cl.Submit(node, []*cluster.Handle{left.ready[w], bh}, d, nil))
	}
	q.reserve(out)
	q.track(out)
	return out
}

// shuffle re-partitions rel by a derived key (groupKey), moving tuples to
// their hash-home workers over the network, and returns each moved
// tuple's key parallel to the output's partitions, so GroupByApply, which
// depends on all senders (a pipeline-breaking exchange), derives no key
// twice.
func (q *Query) shuffle(rel *Relation, groupKey func(Tuple) string) (*Relation, [][]string) {
	if q.err != nil {
		return emptyLike(q.eng, "shuffle"), nil
	}
	e := q.eng
	out := emptyLike(e, "shuffle:"+rel.Name)
	n := 0
	for _, p := range rel.parts {
		n += len(p)
	}
	gks := make([]string, 0, n) // in arrival order
	count := make([]int, e.Workers())
	for _, p := range rel.parts {
		for _, t := range p {
			gk := groupKey(t)
			gks = append(gks, gk)
			count[e.hashWorker(gk)]++
		}
	}
	keys := make([][]string, e.Workers())
	for w, c := range count {
		out.parts[w], keys[w] = make([]Tuple, 0, c), make([]string, 0, c)
	}
	send := e.cl.Barrier(rel.ready...)
	var moved cluster.Handle // every transfer, folded
	xfers := 0
	// Workers are laid out node by node in ascending node order, so each
	// sending node's transfers go out after its last worker, in
	// destination order: (src, dst) order overall.
	bytes, sent := make([]int64, e.cl.Nodes()), make([]bool, e.cl.Nodes()) // by destination
	i := 0
	for w, p := range rel.parts {
		src := e.nodeOf(w)
		for _, t := range p {
			hw := e.hashWorker(gks[i])
			out.parts[hw] = append(out.parts[hw], t)
			keys[hw] = append(keys[hw], gks[i])
			i++
			if dst := e.nodeOf(hw); src != dst {
				bytes[dst] += t.Size
				sent[dst] = true
			}
		}
		if w+1 < len(rel.parts) && e.nodeOf(w+1) == src {
			continue
		}
		for dst := range sent {
			if sent[dst] {
				x := q.note(e.cl.Transfer(src, dst, bytes[dst], send))
				moved.End, moved.Err = max(moved.End, x.End), cmp.Or(moved.Err, x.Err)
				xfers++
			}
			bytes[dst], sent[dst] = 0, false
		}
	}
	arrive := send
	if xfers > 0 {
		arrive = e.cl.Barrier(&moved)
	}
	for w := range out.parts {
		out.ready[w] = arrive
	}
	q.reserve(out)
	q.track(out)
	return out, keys
}

// byKey stable-sorts one worker's shuffled tuples by group key, so each
// group is a run of adjacent tuples in arrival order.
type byKey struct {
	keys []string
	ts   []Tuple
}

func (b byKey) Len() int           { return len(b.ts) }
func (b byKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byKey) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.ts[i], b.ts[j] = b.ts[j], b.ts[i]
}

// GroupByApply shuffles rel by groupKey and applies the Python UDA to each
// group on its home worker, groups in key order.
func (q *Query) GroupByApply(rel *Relation, groupKey func(Tuple) string, uda PyUDA) *Relation {
	sh, keys := q.shuffle(rel, groupKey)
	if q.err != nil {
		return emptyLike(q.eng, uda.Name)
	}
	e := q.eng
	out := emptyLike(e, uda.Name)
	for w, ts := range sh.parts {
		node := e.nodeOf(w)
		sort.Stable(byKey{keys[w], ts})
		groups := 0
		for i := range ts {
			if i == 0 || keys[w][i] != keys[w][i-1] {
				groups++
			}
		}
		var dur vtime.Duration
		results := make([]Tuple, 0, groups) // exact for one tuple per group
		for lo, hi := 0, 0; lo < len(ts); lo = hi {
			for hi = lo + 1; hi < len(ts) && keys[w][hi] == keys[w][lo]; hi++ {
			}
			g := ts[lo:hi:hi]
			var gb int64
			for _, t := range g {
				gb += t.Size
			}
			dur += e.model.AlgTime(uda.Op, gb) + e.model.PyIPCTime(gb)
			res := uda.F(keys[w][lo], g)
			for _, o := range res {
				dur += e.model.PyIPCTime(o.Size)
			}
			results = append(results, res...)
		}
		out.parts[w] = results
		key := uda.Name + "/w" + strconv.Itoa(w)
		out.ready[w] = q.note(e.cl.Submit(node, []*cluster.Handle{sh.ready[w]}, e.work(e.model.Jitter(key, dur)), nil))
	}
	q.reserve(out)
	q.track(out)
	return out
}

// Collect gathers rel's tuples on the coordinator.
func (q *Query) Collect(rel *Relation) ([]Tuple, *cluster.Handle) {
	if q.err != nil {
		return nil, nil
	}
	e := q.eng
	var gathered cluster.Handle // every worker's transfer, folded
	for w := range rel.parts {
		x := q.note(e.cl.Transfer(e.nodeOf(w), 0, rel.partBytes(w), rel.ready[w]))
		gathered.End, gathered.Err = max(gathered.End, x.End), cmp.Or(gathered.Err, x.Err)
	}
	return rel.Tuples(), e.cl.Barrier(&gathered)
}

func emptyLike(e *Engine, name string) *Relation {
	return &Relation{Name: name, eng: e,
		parts: make([][]Tuple, e.Workers()),
		ready: make([]*cluster.Handle, e.Workers()),
	}
}
