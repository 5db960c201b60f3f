package spark

import (
	"fmt"

	"imagebench/internal/cluster"
)

// This file implements executor failure and lineage-based recovery — the
// fault-tolerance mechanism the RDD abstraction exists for (Zaharia et
// al., NSDI'12, reference [42] of the paper). Killing an executor loses
// every partition it hosted (cached blocks, shuffle outputs); the next
// action detects the loss and recomputes exactly the lost partitions
// from lineage, rescheduling them on surviving nodes.

// KillExecutor marks node's executor dead: partitions hosted there are
// lost and will be recomputed from lineage by the next action. Node 0
// hosts the driver and cannot be killed, so at least one node always
// survives. Killing an already-dead node is a no-op.
func (s *Session) KillExecutor(node int) error {
	if node == 0 {
		return fmt.Errorf("spark: node 0 hosts the driver")
	}
	if node < 0 || node >= s.cl.Nodes() {
		return fmt.Errorf("spark: no node %d", node)
	}
	if s.dead == nil {
		s.dead = make(map[int]bool)
	}
	if s.dead[node] {
		return nil
	}
	s.dead[node] = true
	s.epoch++
	return nil
}

// adoptNodeFailure reacts to a task (or transfer) lost to a cluster-level
// node kill: the hosting executor is marked dead — bumping the failure
// epoch so lineage repair recomputes exactly the partitions it hosted —
// and the failure time is recorded as the earliest moment recovery work
// may be scheduled. It reports false for errors that are not node
// failures, or when the failed node hosts the driver (unrecoverable).
func (s *Session) adoptNodeFailure(err error) bool {
	nd, ok := cluster.DownAt(err)
	if !ok || nd.Node == 0 {
		return false
	}
	if s.dead == nil || !s.dead[nd.Node] {
		if s.KillExecutor(nd.Node) != nil {
			return false
		}
	}
	if nd.At > s.failedAt {
		s.failedAt = nd.At
	}
	return true
}

// afterFailure returns a handle recovery work must wait on: a loss is
// only detectable once the kill has happened, so recomputation cannot
// use idle cluster capacity from before it. It is nil while no
// cluster-level failure has been adopted (manual KillExecutor calls,
// as in the fault-tolerance example, keep their between-action timing).
func (s *Session) afterFailure() *cluster.Handle {
	if s.failedAt == 0 {
		return nil
	}
	return &cluster.Handle{End: s.failedAt}
}

// retryLost is Spark's task-level retry: while partition p's handle
// reports a node failure, the executor is adopted as dead and the task
// resubmitted on a surviving node via the given closure. Attempts are
// bounded by the cluster size (each genuine retry kills one more
// executor, and the driver's node cannot die recoverably).
func (r *RDD) retryLost(p int, resubmit func(attempt int) error) error {
	for attempt := 1; attempt <= r.s.cl.Nodes(); attempt++ {
		h := r.ready[p]
		if h == nil || h.Err == nil {
			return nil
		}
		if !r.s.adoptNodeFailure(h.Err) {
			return h.Err
		}
		if err := resubmit(attempt); err != nil {
			return err
		}
	}
	if h := r.ready[p]; h != nil {
		return h.Err
	}
	return nil
}

// nodeFor maps a partition index onto an alive node.
func (s *Session) nodeFor(p int) int {
	n := s.cl.Nodes()
	if len(s.dead) == 0 {
		return p % n
	}
	alive := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !s.dead[i] {
			alive = append(alive, i)
		}
	}
	return alive[p%len(alive)]
}

// lostPartitions returns the indices of materialized partitions hosted
// on dead nodes.
func (r *RDD) lostPartitions() []int {
	var lost []int
	for p, node := range r.nodes {
		if r.s.dead[node] {
			lost = append(lost, p)
		}
	}
	return lost
}

// repair recomputes the partitions lost to executor failures since this
// RDD was materialized, using its lineage, and re-stamps the epoch.
// Partitions on surviving nodes are untouched.
func (r *RDD) repair() error {
	s := r.s
	lost := r.lostPartitions()
	if len(lost) == 0 {
		r.epoch = s.epoch
		return nil
	}
	switch r.kind {
	case opSource:
		if r.decode == nil {
			// parallelize(): the driver still has the data; re-ship.
			for i, p := range lost {
				node := s.nodeFor(p + i + 1) // spread away from the old spot
				var bytes int64
				for _, rec := range r.parts[p] {
					bytes += rec.Size
				}
				ship := s.cl.Transfer(0, node, bytes, s.startup, s.afterFailure())
				r.nodes[p] = node
				r.ready[p] = s.cl.Submit(node, []*cluster.Handle{ship}, s.model.GobTime(bytes), nil)
			}
		} else {
			// Re-enumerate is unnecessary (the driver kept the listing);
			// re-download the lost partitions only.
			for i, p := range lost {
				if err := r.fetchPartition(p, s.nodeFor(p+i+1), s.startup, s.afterFailure()); err != nil {
					return err
				}
			}
		}
	case opNarrow:
		chain, base := r.narrowChain()
		if err := base.compute(); err != nil { // repairs base recursively
			return err
		}
		for _, p := range lost {
			r.narrowPartition(chain, base, p, s.afterFailure())
		}
	case opShuffle:
		// Dead nodes lost their map outputs too: recompute the map side
		// (the parent repairs itself recursively), then re-run only the
		// lost reduce partitions.
		if err := r.parent.compute(); err != nil {
			return err
		}
		in, barrier := r.mapSide(s.afterFailure())
		for i, p := range lost {
			r.reducePartition(p, s.nodeFor(p+i+1), in, barrier, nil)
		}
	}
	if r.cached && r.spilled != nil {
		for _, p := range lost {
			if p < len(r.spilled) {
				r.spilled[p] = false
				r.cachePartition(p)
			}
		}
	}
	r.epoch = s.epoch
	return nil
}
