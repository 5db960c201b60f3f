// Package cluster implements a virtual-time simulation of a shared-nothing
// compute cluster: a set of nodes, each with a fixed number of worker slots,
// a bounded memory budget, a local disk, and a network interface with finite
// bandwidth.
//
// It substitutes for the 16–64 node AWS clusters used in the paper. The
// paper's results are shapes (who wins, by what factor, where curves
// cross) that come from how each system schedules, moves and stores the
// same work, so a model of those resources reproduces them without the
// hardware. Engines submit tasks in the order their scheduler would
// dispatch them; the cluster assigns each task to a worker slot and advances
// per-resource virtual clocks by modeled durations. A task's Go function,
// if any, runs at submission, but the records engines pass along carry
// lazy values (internal/lazy), computed only when something reads them;
// elapsed time is tracked virtually, so a 64-node experiment runs
// deterministically on one physical core. The cluster never keeps the
// handles it is given (see Handle), so an engine that chains or folds
// completions as values allocates nothing for them.
package cluster

import (
	"errors"
	"fmt"
	"math"

	"imagebench/internal/vtime"
)

// Config describes the simulated cluster hardware. The defaults in
// DefaultConfig mirror the paper's r3.2xlarge nodes.
type Config struct {
	Nodes          int            // number of machines
	WorkersPerNode int            // parallel worker slots per machine (vCPUs or tuned workers)
	MemPerNode     int64          // bytes of usable memory per machine
	NetBandwidth   float64        // bytes per virtual second per NIC
	DiskBandwidth  float64        // bytes per virtual second per local disk
	TaskOverhead   vtime.Duration // fixed scheduling cost charged to every task
}

// DefaultConfig returns a 16-node cluster modeled on the paper's setup:
// r3.2xlarge instances with 8 vCPUs, 61 GB memory, SSD storage, and
// 10 GbE-class networking.
func DefaultConfig() Config {
	return Config{
		Nodes:          16,
		WorkersPerNode: 8,
		MemPerNode:     61 << 30,
		NetBandwidth:   700e6, // ~700 MB/s NIC
		DiskBandwidth:  400e6, // ~400 MB/s SSD
		TaskOverhead:   0,
	}
}

// ErrOOM is returned (wrapped) when a memory reservation exceeds a node's
// budget. Engines translate it into their own failure behaviour: Myria's
// pipelined mode fails the query, Spark spills to disk instead.
var ErrOOM = errors.New("out of memory")

// Handle records the simulated completion of a task or transfer. Handles are
// passed as dependencies to later submissions, which is how engines express
// their dataflow to the simulator.
//
// The cluster reads deps and never keeps them: Submit, Transfer,
// DiskRead, DiskWrite, Broadcast and Barrier are wrappers small enough to
// inline over functions that return a Handle value, so the returned
// pointer is placed by the caller's escape analysis. A handle only passed
// on as the next call's dependency stays on the caller's stack. A loop
// that chains work carries the handle as a value (h = *c.DiskWrite(…, &h))
// rather than as a pointer, which the compiler must move to the heap.
type Handle struct {
	Node int        // node the work ran on (or destination node for transfers)
	End  vtime.Time // virtual completion time
	Err  error      // first error from the task function, if any
}

// After returns the virtual time at which all given handles have completed.
// Nil handles are treated as already complete at time zero.
func After(deps ...*Handle) vtime.Time {
	var t vtime.Time
	for _, d := range deps {
		if d != nil && d.End > t {
			t = d.End
		}
	}
	return t
}

// FirstErr returns the first non-nil error among the handles.
func FirstErr(deps ...*Handle) error {
	for _, d := range deps {
		if d != nil && d.Err != nil {
			return d.Err
		}
	}
	return nil
}

type node struct {
	workers []vtime.GapTimeline
	nic     vtime.GapTimeline
	disk    vtime.GapTimeline
	mem     MemTracker

	// Fault-injection state (see faults.go).
	killed     bool
	deadAt     vtime.Time
	slowAt     vtime.Time
	slowFactor float64 // > 1 after slowAt (straggler)
}

// bestWorker returns the slot that can start a task of the given duration
// earliest, and that start time, ties going to the lowest slot. No slot
// starts before ready, so the first one that starts at ready ends the
// scan.
func (n *node) bestWorker(ready vtime.Time, d vtime.Duration) (int, vtime.Time) {
	best, bestStart := 0, n.workers[0].StartAt(ready, d)
	for i := 1; i < len(n.workers) && bestStart != ready; i++ {
		if s := n.workers[i].StartAt(ready, d); s < bestStart {
			best, bestStart = i, s
		}
	}
	return best, bestStart
}

// plan resolves where and how long a task of nominal duration d becoming
// ready at ready would run on this node: the chosen slot, its start, and
// the node-effective duration. A straggler node stretches tasks that
// *start* at or after its slowdown (a task already running when the
// degradation begins is approximated as unaffected); the stretched
// duration is re-probed, which can only move the start later — still at
// or after the slowdown, so the fixed point is immediate.
func (n *node) plan(ready vtime.Time, d vtime.Duration) (w int, start vtime.Time, eff vtime.Duration) {
	w, start = n.bestWorker(ready, d)
	if n.slowFactor > 1 && !start.Before(n.slowAt) {
		eff = vtime.Duration(float64(d) * n.slowFactor)
		w, start = n.bestWorker(ready, eff)
		return w, start, eff
	}
	return w, start, d
}

// probe returns the start a task of nominal duration d becoming ready at
// ready would get on this node, and whether a scheduler would assign it
// there: false only when the node is already dead at that start. A task
// that starts before the kill and would die mid-run is still assigned —
// the scheduler cannot see the future; the failure surfaces when the
// task runs (Submit) and the engine's recovery deals with it. The
// duration must include any per-task overhead: probing with a different
// duration than the one later reserved can select a slot — or a node —
// the booking then disagrees with.
func (n *node) probe(ready vtime.Time, d vtime.Duration) (vtime.Time, bool) {
	_, start, _ := n.plan(ready, d)
	if n.killed && !start.Before(n.deadAt) {
		return start, false
	}
	return start, true
}

// Cluster is the simulated cluster. It is not safe for concurrent use; the
// engines in this repository are deterministic single-goroutine simulations.
type Cluster struct {
	cfg      Config
	nodes    []*node
	makespan vtime.Time
	tasks    int

	// Fault-injection state (see faults.go): whether any fault is
	// scheduled, and the booking floor recovery paths raise so restarts
	// cannot use idle time from before the failure.
	faulty bool
	floor  vtime.Time

	stageMarks []StageMark
}

// New builds a cluster from cfg. It panics on non-positive node or worker
// counts, which always indicate a programming error in an experiment.
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 || cfg.WorkersPerNode <= 0 {
		panic(fmt.Sprintf("cluster: invalid config %+v", cfg))
	}
	if cfg.NetBandwidth <= 0 {
		cfg.NetBandwidth = DefaultConfig().NetBandwidth
	}
	if cfg.DiskBandwidth <= 0 {
		cfg.DiskBandwidth = DefaultConfig().DiskBandwidth
	}
	c := &Cluster{cfg: cfg}
	for i := 0; i < cfg.Nodes; i++ {
		c.nodes = append(c.nodes, &node{
			workers: make([]vtime.GapTimeline, cfg.WorkersPerNode),
			mem:     MemTracker{capacity: cfg.MemPerNode},
		})
	}
	return c
}

// Config returns the configuration the cluster was built with.
func (c *Cluster) Config() Config { return c.cfg }

// Nodes returns the number of nodes.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Workers returns the total number of worker slots in the cluster.
func (c *Cluster) Workers() int { return len(c.nodes) * c.cfg.WorkersPerNode }

func (c *Cluster) node(i int) *node {
	if i < 0 || i >= len(c.nodes) {
		panic(fmt.Sprintf("cluster: node %d out of range [0,%d)", i, len(c.nodes)))
	}
	return c.nodes[i]
}

func (c *Cluster) observe(t vtime.Time) {
	if t > c.makespan {
		c.makespan = t
	}
}

// Submit runs fn on the earliest-free worker slot of the given node, after
// all deps complete, charging cost of virtual time plus the per-task
// overhead. fn may be nil for pure "delay" tasks. If any dependency failed,
// fn is not run and the error propagates.
func (c *Cluster) Submit(nodeID int, deps []*Handle, cost vtime.Duration, fn func() error) *Handle {
	h := c.submit(nodeID, deps, cost, fn)
	return &h
}

func (c *Cluster) submit(nodeID int, deps []*Handle, cost vtime.Duration, fn func() error) Handle {
	n := c.node(nodeID)
	ready := vtime.Max(After(deps...), c.floor)
	if err := FirstErr(deps...); err != nil {
		return Handle{Node: nodeID, End: ready, Err: err}
	}
	if cost < 0 {
		cost = 0
	}
	w, probedStart, d := n.plan(ready, cost+c.cfg.TaskOverhead)
	if n.killed && (!ready.Before(n.deadAt) || probedStart.Add(d).After(n.deadAt)) {
		// The node is already down, or dies before the task completes:
		// the work is lost, and the failure cannot be detected before
		// the kill itself.
		return Handle{Node: nodeID, End: vtime.Max(ready, n.deadAt), Err: &NodeDownError{Node: nodeID, At: n.deadAt}}
	}
	start, end := n.workers[w].Reserve(ready, d)
	c.tasks++
	c.observe(end)
	h := Handle{Node: nodeID, End: end}
	if fn != nil {
		h.Err = fn()
	}
	if auditBooked != nil {
		auditBooked(c, After(deps...), h.End, booked{nodeID, w, 'w', start, end})
	}
	return h
}

// PickNode returns the node that can start a task of the given duration,
// becoming ready at the given time, earliest, preferring the nodes in
// prefer when their start is within locality of the global best. This
// models dynamic, locality-aware schedulers (Dask): work runs where its
// inputs live unless another machine is idle enough that stealing pays
// off. Nothing is reserved, so callers can schedule input transfers to
// the chosen node before submitting the task there. The duration
// matters: slots are probed for a gap that actually fits the task.
func (c *Cluster) PickNode(prefer []int, locality vtime.Duration, ready vtime.Time, cost vtime.Duration) int {
	ready = vtime.Max(ready, c.floor)
	if cost < 0 {
		cost = 0
	}
	// Probe with the overhead-inclusive duration the later Submit will
	// reserve: probing with the bare cost can select a node whose gap
	// fits the cost but not the booking, so Submit would book a
	// different slot (and a worse start) than the probe chose.
	// No node starts before ready, so the first live one that starts at
	// ready ends the scan: ties go to the lowest index either way.
	d := cost + c.cfg.TaskOverhead
	best, bestStart := -1, vtime.Time(math.MaxInt64)
	for i := 0; i < len(c.nodes) && bestStart != ready; i++ {
		if start, ok := c.nodes[i].probe(ready, d); ok && start < bestStart {
			best, bestStart = i, start
		}
	}
	if best < 0 {
		// Inject guarantees at least one node is never killed, and
		// probe only rejects killed nodes.
		panic("cluster: no schedulable node despite the at-least-one-alive invariant")
	}
	for _, p := range prefer {
		if p < 0 || p >= len(c.nodes) {
			continue
		}
		if start, ok := c.nodes[p].probe(ready, d); ok && start.Sub(bestStart) <= locality {
			return p
		}
	}
	return best
}

// Transfer moves nbytes from node src to node dst over both NICs, after
// deps. It returns a handle completing when the data is resident on dst.
// Transfers between a node and itself are free.
func (c *Cluster) Transfer(src, dst int, nbytes int64, deps ...*Handle) *Handle {
	h := c.transfer(src, dst, nbytes, deps)
	return &h
}

func (c *Cluster) transfer(src, dst int, nbytes int64, deps []*Handle) Handle {
	ready := vtime.Max(After(deps...), c.floor)
	if err := FirstErr(deps...); err != nil {
		return Handle{Node: dst, End: ready, Err: err}
	}
	if src == dst || nbytes <= 0 {
		return Handle{Node: dst, End: ready}
	}
	d := bytesDur(nbytes, c.cfg.NetBandwidth)
	s := c.node(src)
	t := c.node(dst)
	// The transfer occupies both NICs for the same interval: find the
	// earliest common gap by fixed-point iteration. Each step moves start
	// past a booking on one NIC, and both hold finitely many, so it ends.
	start := ready
	for {
		next := vtime.Max(s.nic.StartAt(start, d), t.nic.StartAt(start, d))
		if next == start {
			break
		}
		start = next
	}
	// A transfer needs both endpoints alive for its whole interval: a
	// killed source loses the data, a killed destination loses the copy.
	for _, ep := range [2]int{src, dst} {
		n := c.node(ep)
		if n.killed && (!ready.Before(n.deadAt) || start.Add(d).After(n.deadAt)) {
			return Handle{Node: ep, End: vtime.Max(ready, n.deadAt), Err: &NodeDownError{Node: ep, At: n.deadAt}}
		}
	}
	ss, end := s.nic.Reserve(start, d)
	ts, te := t.nic.Reserve(start, d)
	c.observe(end)
	if auditBooked != nil {
		auditBooked(c, After(deps...), end, booked{src, 0, 'n', ss, end}, booked{dst, 0, 'n', ts, te})
	}
	return Handle{Node: dst, End: end}
}

// Broadcast replicates nbytes from src to every other node using a binary
// distribution tree (the strategy BitTorrent-style broadcasts approximate):
// ceil(log2(nodes)) rounds, each taking one transfer time.
func (c *Cluster) Broadcast(src int, nbytes int64, deps ...*Handle) *Handle {
	h := c.broadcast(src, nbytes, deps)
	return &h
}

func (c *Cluster) broadcast(src int, nbytes int64, deps []*Handle) Handle {
	ready := vtime.Max(After(deps...), c.floor)
	if err := FirstErr(deps...); err != nil {
		return Handle{Node: src, End: ready, Err: err}
	}
	if len(c.nodes) <= 1 || nbytes <= 0 {
		return Handle{Node: src, End: ready}
	}
	rounds := int(math.Ceil(math.Log2(float64(len(c.nodes)))))
	d := bytesDur(nbytes, c.cfg.NetBandwidth) * vtime.Duration(rounds)
	// The tree occupies every live NIC for the same interval: find the
	// earliest common gap by fixed-point iteration, as Transfer does.
	// Receivers dead before the end are absent from the tree; a later
	// start only drops more of them, so it ends.
	down := func(n *node, start vtime.Time) bool {
		return n.killed && (!start.Before(n.deadAt) || start.Add(d).After(n.deadAt))
	}
	start := ready
	for {
		next := start
		for _, n := range c.nodes {
			if !down(n, start) {
				next = vtime.Max(next, n.nic.StartAt(start, d))
			}
		}
		if next == start {
			break
		}
		start = next
	}
	if s := c.node(src); down(s, start) {
		return Handle{Node: src, End: vtime.Max(ready, s.deadAt), Err: &NodeDownError{Node: src, At: s.deadAt}}
	}
	end := start.Add(d)
	var bs []booked
	for i, n := range c.nodes {
		if down(n, start) {
			continue
		}
		if s, e := n.nic.Reserve(start, d); auditBooked != nil {
			bs = append(bs, booked{i, 0, 'n', s, e})
		}
	}
	c.observe(end)
	if auditBooked != nil {
		auditBooked(c, After(deps...), end, bs...)
	}
	return Handle{Node: src, End: end}
}

// DiskWrite charges a local-disk write of nbytes on the node.
func (c *Cluster) DiskWrite(nodeID int, nbytes int64, deps ...*Handle) *Handle {
	h := c.diskOp(nodeID, nbytes, deps)
	return &h
}

// DiskRead charges a local-disk read of nbytes on the node.
func (c *Cluster) DiskRead(nodeID int, nbytes int64, deps ...*Handle) *Handle {
	h := c.diskOp(nodeID, nbytes, deps)
	return &h
}

func (c *Cluster) diskOp(nodeID int, nbytes int64, deps []*Handle) Handle {
	ready := vtime.Max(After(deps...), c.floor)
	if err := FirstErr(deps...); err != nil {
		return Handle{Node: nodeID, End: ready, Err: err}
	}
	n := c.node(nodeID)
	d := bytesDur(nbytes, c.cfg.DiskBandwidth)
	if n.killed && (!ready.Before(n.deadAt) || n.disk.StartAt(ready, d).Add(d).After(n.deadAt)) {
		return Handle{Node: nodeID, End: vtime.Max(ready, n.deadAt), Err: &NodeDownError{Node: nodeID, At: n.deadAt}}
	}
	start, end := n.disk.Reserve(ready, d)
	c.observe(end)
	if auditBooked != nil {
		auditBooked(c, After(deps...), end, booked{nodeID, 0, 'd', start, end})
	}
	return Handle{Node: nodeID, End: end}
}

// Barrier returns a handle that completes when all deps complete,
// propagating the first error. It consumes no resources; it models a
// synchronization point (stage boundary, query end).
func (c *Cluster) Barrier(deps ...*Handle) *Handle {
	h := c.barrier(deps)
	return &h
}

func (c *Cluster) barrier(deps []*Handle) Handle {
	h := Handle{End: After(deps...), Err: FirstErr(deps...)}
	c.observe(h.End)
	if auditBooked != nil {
		auditBooked(c, h.End, h.End)
	}
	return h
}

// Mem returns the memory tracker for a node.
func (c *Cluster) Mem(nodeID int) *MemTracker { return &c.node(nodeID).mem }

// MaxHighWater returns the largest memory high-water mark across nodes.
func (c *Cluster) MaxHighWater() int64 {
	var m int64
	for _, n := range c.nodes {
		if n.mem.highWater > m {
			m = n.mem.highWater
		}
	}
	return m
}

// Makespan returns the latest virtual completion time observed so far — the
// simulated wall-clock runtime of everything submitted to the cluster.
func (c *Cluster) Makespan() vtime.Time {
	if auditMakespan != nil {
		auditMakespan(c)
	}
	return c.makespan
}

// Tasks returns the number of tasks executed.
func (c *Cluster) Tasks() int { return c.tasks }

// Utilization returns the mean busy fraction across all worker slots.
func (c *Cluster) Utilization() float64 {
	if c.makespan == 0 {
		return 0
	}
	var busy vtime.Duration
	for _, n := range c.nodes {
		for i := range n.workers {
			busy += n.workers[i].Busy()
		}
	}
	total := vtime.Duration(c.makespan).Seconds() * float64(c.Workers())
	if total == 0 {
		return 0
	}
	return busy.Seconds() / total
}

func bytesDur(nbytes int64, bandwidth float64) vtime.Duration {
	if nbytes <= 0 || bandwidth <= 0 {
		return 0
	}
	return vtime.Duration(float64(nbytes) / bandwidth * 1e9)
}

// MemTracker accounts for memory use on one node. It is advisory: engines
// consult it to decide whether to fail, spill, or proceed.
type MemTracker struct {
	capacity  int64
	used      int64
	highWater int64
}

// Capacity returns the node's memory budget in bytes.
func (m *MemTracker) Capacity() int64 { return m.capacity }

// Used returns currently reserved bytes.
func (m *MemTracker) Used() int64 { return m.used }

// HighWater returns the maximum bytes ever reserved at once.
func (m *MemTracker) HighWater() int64 { return m.highWater }

// Free returns the remaining budget.
func (m *MemTracker) Free() int64 { return m.capacity - m.used }

// Alloc reserves nbytes, or returns an error wrapping ErrOOM if the node
// budget would be exceeded.
func (m *MemTracker) Alloc(nbytes int64) error {
	if nbytes < 0 {
		panic("cluster: negative allocation")
	}
	if m.used+nbytes > m.capacity {
		return fmt.Errorf("%w: need %d bytes, %d of %d in use", ErrOOM, nbytes, m.used, m.capacity)
	}
	m.used += nbytes
	if m.used > m.highWater {
		m.highWater = m.used
	}
	return nil
}

// Release returns nbytes to the budget. Releasing more than is in use is a
// programming error and panics.
func (m *MemTracker) Release(nbytes int64) {
	if nbytes < 0 || nbytes > m.used {
		panic(fmt.Sprintf("cluster: bad release of %d with %d in use", nbytes, m.used))
	}
	m.used -= nbytes
}
