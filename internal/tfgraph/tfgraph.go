// Package tfgraph implements a TensorFlow-like distributed dataflow
// engine as the paper used it (circa v0.x): static graphs over dense
// tensors with manual device placement, a master that owns all data
// ingest and result collection, and step-by-step execution with global
// barriers.
//
// Properties the paper's results hinge on, implemented explicitly:
//
//   - All ingest flows through the master and results always return to
//     the master (Fig 11: slower than every parallel-ingest system).
//   - The master converts NumPy arrays ↔ tensors around every step,
//     serially (Figs 12a–12c: conversion dominates).
//   - Serialized graphs are limited to MaxGraphBytes (2 GB in the paper),
//     forcing the use case to run as one graph per step, in batches of
//     one item per device, with a global barrier per batch.
//   - Work assignment is manual: the Assign option maps items to devices,
//     and bad assignments cost real time (Section 5.3.1 found a 2×
//     spread).
//   - Filtering is only supported along the first tensor dimension;
//     selecting volumes requires flatten + reshape passes over the full
//     data (Fig 12a: orders of magnitude slower), modeled with the
//     ConvertPasses option.
package tfgraph

import (
	"fmt"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/objstore"
	"imagebench/internal/vtime"
)

// Tensor is one data item on the master: an opaque value with its
// paper-scale size.
type Tensor struct {
	Value any
	Size  int64
}

// Session is a TensorFlow master driving one worker process per node.
type Session struct {
	cl      *cluster.Cluster
	model   *cost.Model
	store   *objstore.Store
	startup *cluster.Handle
	// MaxGraphBytes caps the serialized size of one compute graph
	// (2 GB in the paper). Steps whose batch would exceed it fail.
	MaxGraphBytes int64
	// MasterConns is the master's parallel S3 connection count.
	MasterConns int
	last        *cluster.Handle

	// Checkpoint-and-restart state, active only on fault-injected
	// clusters: the master checkpoints the step outputs it holds after
	// every completed step, and a worker death restarts the session from
	// the last checkpoint — the failed step's work is lost and re-run on
	// the surviving devices.
	ckptBytes int64 // size of the last checkpoint on the master's disk
	restarts  int
}

// NewSession starts the master and workers.
func NewSession(cl *cluster.Cluster, store *objstore.Store, model *cost.Model) *Session {
	s := &Session{
		cl: cl, model: model, store: store,
		MaxGraphBytes: 2 << 30,
		MasterConns:   8,
	}
	s.startup = cl.Submit(0, nil, model.Startup[cost.TensorFlow], nil)
	s.last = s.startup
	return s
}

// Ingest downloads all objects under prefix through the master and
// decodes them into tensors. Worker nodes never touch the object store.
func (s *Session) Ingest(prefix string, decode func(objstore.Object) ([]Tensor, error)) ([]Tensor, *cluster.Handle, error) {
	keys := s.store.List(prefix)
	if len(keys) == 0 {
		return nil, nil, fmt.Errorf("tfgraph: no objects under %q", prefix)
	}
	var out []Tensor
	var total int64
	for _, k := range keys {
		obj, err := s.store.Get(k)
		if err != nil {
			return nil, nil, err
		}
		total += obj.Size()
		ts, err := decode(obj)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, ts...)
	}
	conns := s.MasterConns
	if conns <= 0 {
		conns = 1
	}
	dl := vtime.Duration(float64(s.model.S3Fetch(len(keys), total)) / float64(conns))
	dl += s.model.FormatTime(total)
	h := s.cl.Submit(0, []*cluster.Handle{s.last}, dl, nil)
	s.last = h
	return out, h, nil
}

// StepOpts tunes one RunStep.
type StepOpts struct {
	// Assign maps item index → device (node). Nil means round-robin one
	// item per device per batch, the paper's default mapping.
	Assign []int
	// ConvertPasses adds extra full-tensor passes executed on each
	// item's device (flatten/reshape workarounds for unsupported ops).
	ConvertPasses int
}

// RunStep executes one pipeline step as TensorFlow graphs: items are
// converted to tensors on the master, shipped to their devices, computed
// with f, shipped back, and converted back — in batches of at most one
// item per device, with a global barrier after each batch (the paper's
// Figure 9 execution loop).
//
// On a fault-injected cluster the session checkpoints after every
// completed step; a device dying mid-step triggers checkpoint-and-
// restart: the session restart cost is paid, the last checkpoint is read
// back, and the whole step — everything since that checkpoint — re-runs
// on the surviving devices.
func (s *Session) RunStep(name string, op cost.Op, items []Tensor, opts StepOpts, f func(Tensor) (Tensor, error)) ([]Tensor, *cluster.Handle, error) {
	if len(items) == 0 {
		return nil, s.last, nil
	}
	if opts.Assign != nil && len(opts.Assign) != len(items) {
		return nil, nil, fmt.Errorf("tfgraph: %d assignments for %d items", len(opts.Assign), len(items))
	}
	stepStart := s.last
	for {
		out, barrier, err := s.runStepOnce(name, op, items, opts, f, stepStart)
		if err != nil {
			nd, down := cluster.DownAt(err)
			if !down || nd.Node == 0 || s.restarts >= s.cl.Kills() {
				return nil, nil, err
			}
			// Checkpoint-and-restart: everything since the last
			// checkpoint is lost. The master restarts the process and
			// restores the checkpoint; the step then re-runs from its
			// beginning on whichever devices survive.
			s.restarts++
			s.cl.AdvanceFloor(nd.At)
			restore := s.cl.Submit(0, []*cluster.Handle{{End: nd.At}},
				s.model.Startup[cost.TensorFlow], nil)
			if s.ckptBytes > 0 {
				restore = s.cl.DiskRead(0, s.ckptBytes, restore)
			}
			stepStart = restore
			continue
		}
		s.last = barrier
		if s.cl.Faulty() {
			// Checkpoint the step outputs the master now holds.
			var outBytes int64
			for _, t := range out {
				outBytes += t.Size
			}
			s.ckptBytes = outBytes
			s.last = s.cl.DiskWrite(0, outBytes, barrier)
		}
		return out, s.last, nil
	}
}

// runStepOnce is one attempt at a step, driving the surviving devices.
// A worker death surfaces as a *cluster.NodeDownError.
func (s *Session) runStepOnce(name string, op cost.Op, items []Tensor, opts StepOpts, f func(Tensor) (Tensor, error), stepStart *cluster.Handle) ([]Tensor, *cluster.Handle, error) {
	devs := s.cl.AliveNodes()
	devices := len(devs)
	assign := opts.Assign
	if assign == nil {
		assign = make([]int, len(items))
		for i := range assign {
			assign[i] = i % devices
		}
	}
	out := make([]Tensor, len(items))
	barrier := stepStart
	// Process items in batches: each device takes at most one item per
	// batch; run() waits for all devices before the next batch.
	for start := 0; start < len(items); {
		// Build one batch: first unprocessed item per device.
		taken := make(map[int]bool)
		var batch []int
		var graphBytes int64 = 1 << 20 // graph structure overhead
		for i := start; i < len(items) && len(batch) < devices; i++ {
			dev := assign[i] % devices
			if taken[dev] {
				break // preserve item order per the predefined steps table
			}
			taken[dev] = true
			batch = append(batch, i)
			graphBytes += items[i].Size / 50 // shape metadata & embedded constants
		}
		if len(batch) == 0 { // all remaining items map to one busy device
			batch = append(batch, start)
		}
		if graphBytes > s.MaxGraphBytes {
			return nil, nil, fmt.Errorf("tfgraph: step %q graph is %d bytes, exceeds %d-byte limit — split the step",
				name, graphBytes, s.MaxGraphBytes)
		}
		var batchBytes int64
		for _, i := range batch {
			batchBytes += items[i].Size
		}
		// Master-side tensor conversion: serial, both directions.
		conv := s.cl.Submit(0, []*cluster.Handle{barrier},
			2*s.model.TensorTime(batchBytes), nil)
		var done []*cluster.Handle
		for _, i := range batch {
			dev := devs[assign[i]%devices]
			toDev := s.cl.Transfer(0, dev, items[i].Size, conv)
			res, err := f(items[i])
			if err != nil {
				return nil, nil, fmt.Errorf("tfgraph: step %q item %d: %w", name, i, err)
			}
			key := fmt.Sprintf("%s/i%d", name, i)
			// Device-side work: the op itself plus any flatten/reshape
			// workaround passes over the whole tensor.
			work := s.model.AlgTime(op, items[i].Size) +
				vtime.Duration(opts.ConvertPasses)*s.model.TensorTime(items[i].Size)
			compute := s.cl.Submit(dev, []*cluster.Handle{toDev},
				s.model.Jitter(key, work), nil)
			back := s.cl.Transfer(dev, 0, res.Size, compute)
			out[i] = res
			done = append(done, back)
		}
		// Global barrier: wait for every worker before the next batch.
		barrier = s.cl.Barrier(done...)
		if barrier.Err != nil {
			return nil, nil, fmt.Errorf("tfgraph: step %q: %w", name, barrier.Err)
		}
		start += len(batch)
	}
	return out, barrier, nil
}
