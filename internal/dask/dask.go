// Package dask implements a Dask-like parallel computing library: users
// build explicit delayed compute graphs over plain values; calling Compute
// introduces a barrier at which a dynamic, locality-aware scheduler with
// work stealing assigns tasks to machines.
//
// Properties the paper's results hinge on, implemented explicitly:
//
//   - No stage barriers inside a graph: a per-subject chain proceeds as
//     soon as its own inputs are ready, hiding skew that Spark and Myria
//     barriers amplify (Fig 10c: slower at 1 subject, fastest at 25).
//   - A centralized scheduler pays a per-task dispatch cost that grows
//     with cluster size (work-stealing chatter), degrading speedup at 64
//     nodes (Fig 10g).
//   - The largest startup overhead of the three Python-friendly systems.
//   - Results stay on the machine that computed them; consuming them
//     elsewhere pays pickling plus network transfer.
//   - No data persistence and no automatic partitioning: callers decide
//     task granularity (the manual tuning Section 4.4 describes).
package dask

import (
	"fmt"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/objstore"
	"imagebench/internal/vtime"
)

// Session is a Dask distributed client connected to a scheduler and a
// simulated cluster.
type Session struct {
	cl      *cluster.Cluster
	model   *cost.Model
	store   *objstore.Store
	sched   vtime.GapTimeline // centralized scheduler: serial dispatch
	startup *cluster.Handle
	// StealLocality is how much later a local (data-holding) node may
	// start a task before the scheduler steals it to an idle machine.
	// Zero means aggressive stealing (the default behaviour the paper
	// observed); larger values approximate locality-sticky scheduling.
	StealLocality vtime.Duration

	// Fusion state (see fuse.go).
	fuse       bool
	fusedTasks int
	dependents map[*Delayed]int
	rootSet    map[*Delayed]bool
}

// NewSession connects a client, charging Dask's startup cost.
func NewSession(cl *cluster.Cluster, store *objstore.Store, model *cost.Model) *Session {
	s := &Session{cl: cl, model: model, store: store}
	s.startup = cl.Submit(0, nil, model.Startup[cost.Dask], nil)
	return s
}

// Cluster returns the underlying simulated cluster.
func (s *Session) Cluster() *cluster.Cluster { return s.cl }

// Delayed is a node in a compute graph: a function application whose
// evaluation is postponed until Compute. After evaluation it records the
// real result, its paper-scale size, and where it lives.
type Delayed struct {
	s    *Session
	name string
	deps []*Delayed
	// costFn models the task duration given total input bytes.
	costFn func(inBytes int64) vtime.Duration
	// f computes the real value from dependency values, returning the
	// value and its paper-scale size.
	f func(args []any) (any, int64, error)
	// pinNode forces execution on one machine (used by ingest tasks the
	// paper assigns manually; -1 means scheduler's choice).
	pinNode int

	done   bool
	value  any
	size   int64
	node   int
	handle *cluster.Handle
	// replicas records nodes the result has already been shipped to
	// (workers cache received data), so repeated consumers on one
	// machine pay the transfer once.
	replicas map[int]*cluster.Handle
	// notBefore anchors a resubmitted task after the worker death that
	// lost its previous result: recomputation is only possible once the
	// scheduler has detected the failure.
	notBefore vtime.Time
}

// Delayed wraps f as a graph node computing from deps, with task duration
// modeled by the calibrated throughput of op over the input bytes.
func (s *Session) Delayed(name string, op cost.Op, deps []*Delayed, f func(args []any) (any, int64, error)) *Delayed {
	return s.DelayedCost(name, func(in int64) vtime.Duration { return s.model.AlgTime(op, in) }, deps, f)
}

// DelayedCost is Delayed with an explicit cost function.
func (s *Session) DelayedCost(name string, costFn func(inBytes int64) vtime.Duration, deps []*Delayed, f func(args []any) (any, int64, error)) *Delayed {
	return &Delayed{s: s, name: name, deps: deps, costFn: costFn, f: f, pinNode: -1}
}

// Fetch creates a graph node that downloads one object from the store and
// decodes it with decode. pinNode ≥ 0 forces the download to a specific
// machine (the paper pins subjects to nodes because Dask does not know
// download sizes in advance, Section 5.2.1).
func (s *Session) Fetch(key string, pinNode int, decode func(objstore.Object) (any, int64, error)) *Delayed {
	d := s.DelayedCost("fetch:"+key,
		func(int64) vtime.Duration { return 0 }, // real cost computed from object size below
		nil,
		func([]any) (any, int64, error) {
			obj, err := s.store.Get(key)
			if err != nil {
				return nil, 0, err
			}
			return decode(obj)
		})
	d.pinNode = pinNode
	d.costFn = func(int64) vtime.Duration {
		if obj, err := s.store.Get(key); err == nil {
			return s.model.S3Fetch(1, obj.Size()) + s.model.FormatTime(obj.Size())
		}
		return 0
	}
	return d
}

// Value returns the computed result. It panics if the node has not been
// computed: calling it before Compute is the "missing barrier" bug the
// paper's Section 4.4 warns about.
func (d *Delayed) Value() any {
	if !d.done {
		panic(fmt.Sprintf("dask: Value() on uncomputed node %q — missing Compute barrier", d.name))
	}
	return d.value
}

// Size returns the computed result's paper-scale size.
func (d *Delayed) Size() int64 {
	if !d.done {
		panic(fmt.Sprintf("dask: Size() on uncomputed node %q — missing Compute barrier", d.name))
	}
	return d.size
}

// Compute evaluates the graphs rooted at the given nodes and blocks until
// all are done (the result()/compute() barrier). It returns a handle for
// the barrier completion.
func (s *Session) Compute(roots ...*Delayed) (*cluster.Handle, error) {
	if s.fuse {
		s.prepareFusion(roots)
		defer func() { s.dependents, s.rootSet = nil, nil }()
	}
	var handles []*cluster.Handle
	for _, r := range roots {
		if err := s.eval(r); err != nil {
			return nil, err
		}
		handles = append(handles, r.handle)
	}
	return s.cl.Barrier(handles...), nil
}

// eval runs one node (and its dependencies) through the dynamic
// scheduler, resubmitting work lost to worker deaths: when a task (or a
// transfer feeding it) fails on a killed machine, results that machine
// hosted are invalidated so their tasks re-run on survivors — Dask's
// scheduler holds the whole graph during execution and resubmits lost
// keys, without lineage or data persistence.
func (s *Session) eval(d *Delayed) error {
	if d.done {
		return nil
	}
	for attempt := 0; ; attempt++ {
		var err error
		if chain := s.fusibleChain(d); chain != nil {
			err = s.evalChain(chain)
		} else {
			err = s.evalOnce(d)
		}
		if err == nil {
			return nil
		}
		nd, ok := cluster.DownAt(err)
		if !ok || nd.Node == 0 || attempt >= s.cl.Nodes() {
			return err // not a worker death, the scheduler host died, or out of retries
		}
		s.invalidateLost(d, nd.At, map[*Delayed]bool{})
		if nd.At > d.notBefore {
			d.notBefore = nd.At
		}
	}
}

// invalidateLost walks d's dependency graph and marks every computed
// result hosted on a node dead by time at as uncomputed, so the next
// eval resubmits its task on a surviving worker. Cached replicas on dead
// nodes are dropped from live results.
func (s *Session) invalidateLost(d *Delayed, at vtime.Time, seen map[*Delayed]bool) {
	if seen[d] {
		return
	}
	seen[d] = true
	for _, dep := range d.deps {
		s.invalidateLost(dep, at, seen)
	}
	if !d.done {
		return
	}
	if kt, killed := s.cl.KillTime(d.node); killed && !at.Before(kt) {
		d.done = false
		d.handle = nil
		d.replicas = nil
		if at > d.notBefore {
			d.notBefore = at
		}
		return
	}
	for n := range d.replicas {
		if kt, killed := s.cl.KillTime(n); killed && !at.Before(kt) {
			delete(d.replicas, n)
		}
	}
}

// evalOnce is one scheduling attempt for d: evaluate dependencies, pay
// the dispatch, pick a machine, move inputs, run.
func (s *Session) evalOnce(d *Delayed) error {
	// Room for every dependency, the startup, the resubmission anchor,
	// the dispatch and a replica of every dependency.
	depHandles := make([]*cluster.Handle, 0, 2*len(d.deps)+3)
	prefer := make([]int, len(d.deps))
	args := make([]any, len(d.deps))
	var inBytes int64
	for i, dep := range d.deps {
		if err := s.eval(dep); err != nil {
			return err
		}
		args[i] = dep.value
		inBytes += dep.size
		depHandles = append(depHandles, dep.handle)
		prefer[i] = dep.node
	}
	// Every task also waits for the session to be up; include it before
	// probing node availability so the probe and the booking agree.
	depHandles = append(depHandles, s.startup)
	if d.notBefore > 0 {
		// Resubmission of work lost to a dead worker: not schedulable
		// before the failure was detectable.
		depHandles = append(depHandles, &cluster.Handle{End: d.notBefore})
	}
	// Centralized scheduler dispatch: a serial cost per task that grows
	// with cluster size (work-stealing coordination).
	ready := cluster.After(depHandles...)
	_, dispatched := s.sched.Reserve(ready, s.model.SchedTime(cost.Dask, s.cl.Nodes()))
	depHandles = append(depHandles, &cluster.Handle{End: dispatched})

	dur := s.model.Jitter(d.name, d.costFn(inBytes))

	run := func() error {
		v, size, err := d.f(args)
		if err != nil {
			return fmt.Errorf("dask: task %q: %w", d.name, err)
		}
		d.value, d.size = v, size
		return nil
	}
	// Pick the machine first (stealing threshold: moving the task is
	// worth it only if the remote start beats local availability by more
	// than the input transfer time), then move remote inputs to it, then
	// run.
	node := d.pinNode % max(1, s.cl.Nodes())
	if d.pinNode < 0 {
		locality := s.StealLocality + s.transferDur(inBytes)
		node = s.cl.PickNode(prefer, locality, cluster.After(depHandles...), dur)
	} else if !s.cl.CanHost(node, cluster.After(depHandles...), dur) {
		// The pinned worker is gone: the scheduler reassigns the task to
		// whichever survivor can run it earliest.
		node = s.cl.PickNode(nil, 0, cluster.After(depHandles...), dur)
	}
	for _, dep := range d.deps {
		if dep.node != node && dep.size > 0 {
			depHandles = append(depHandles, s.replicate(dep, node))
		}
	}
	h := s.cl.Submit(node, depHandles, dur, run)
	if h.Err != nil {
		return h.Err
	}
	d.node = h.Node
	d.handle = h
	d.done = true
	return nil
}

// replicate makes dep's result available on node, paying pickling and
// network once per (value, node) pair — workers keep received data.
func (s *Session) replicate(dep *Delayed, node int) *cluster.Handle {
	if h, ok := dep.replicas[node]; ok {
		return h
	}
	ser := s.model.GobTime(dep.size)
	x := s.cl.Transfer(dep.node, node, dep.size, dep.handle)
	h := s.cl.Submit(node, []*cluster.Handle{x}, ser, nil)
	if dep.replicas == nil {
		dep.replicas = make(map[int]*cluster.Handle)
	}
	dep.replicas[node] = h
	return h
}

// transferDur estimates moving nbytes between machines, used as the
// work-stealing break-even threshold.
func (s *Session) transferDur(nbytes int64) vtime.Duration {
	return s.model.GobTime(nbytes)*2 + cost.Dur(nbytes, s.cl.Config().NetBandwidth)
}
