package engine

import (
	"context"

	"imagebench/internal/astro"
	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/neuro"
	"imagebench/internal/skymap"
	"imagebench/internal/vtime"
)

// system is the one implementation of Engine: a description of an
// evaluated system as a value. Each of the five registrations
// (spark.go, myria.go, dask.go, scidb.go, tf.go) is a literal of this
// type binding the system's own functions from internal/neuro and
// internal/astro; nothing downstream is ever selected by name.
type system struct {
	name     string
	recovery RecoveryKind
	// ranks is the system's paper rank in each comparison it joins. The
	// end-to-end and fault-tolerance sets are joined by being ranked
	// here; a step-level capability is held exactly when runners are
	// bound for it, and the loc-table one when files are listed, so for
	// those ranks adds only the order (see Capabilities).
	ranks CapSet
	// neuro and astro are the end-to-end runs, returning their output
	// (Result.Output); nil means the workload does not run on this
	// system and noAstro says why.
	neuro   func(w *neuro.Workload, cl *cluster.Cluster, model *cost.Model, opts Opts) (any, error)
	astro   func(w *astro.Workload, cl *cluster.Cluster, model *cost.Model, opts Opts) (any, error)
	noAstro string
	// onFaults is the recovery policy wrapped around a run on a
	// fault-injected cluster; nil means recovery happens inside the
	// system's own task paths and the run needs no wrapper.
	onFaults func(cl *cluster.Cluster, run func() error) (reruns int, err error)
	// ingest, steps and coadd are the Fig 11, Fig 12a–c and Fig 12d rows.
	ingest, steps, coadd []Runner
	// files are the Table 1 implementation files by use case.
	files map[string]string
}

func (s system) Name() string               { return s.name }
func (s system) RecoveryKind() RecoveryKind { return s.recovery }

// Capabilities derives the held set: a step-level capability from its
// bound runners, loc-table from its listed files, the comparison sets
// from being ranked; the value is always the paper rank.
func (s system) Capabilities() CapSet {
	caps := CapSet{}
	for c := Cap(0); c < numCaps; c++ {
		held := s.ranks.Has(c)
		switch c {
		case CapNeuroIngest, CapNeuroStep, CapAstroCoadd:
			held = len(s.Runners(c)) > 0
		case CapLoC:
			held = len(s.files) > 0
		}
		if held {
			caps[c] = s.ranks[c]
		}
	}
	return caps
}

func (s system) Runners(c Cap) []Runner {
	switch c {
	case CapNeuroIngest:
		return s.ingest
	case CapNeuroStep:
		return s.steps
	case CapAstroCoadd:
		return s.coadd
	}
	return nil
}

func (s system) SourceFiles() map[string]string { return s.files }

func (s system) RunNeuro(ctx context.Context, w *neuro.Workload, cl *cluster.Cluster, model *cost.Model, opts Opts) (Result, error) {
	if s.neuro == nil {
		return Result{}, Unsupported("engine %s: no neuroscience run", s.name)
	}
	var out any
	res, err := s.traced(ctx, "neuro", cl, func() (err error) { out, err = s.neuro(w, cl, model, opts); return err })
	res.Output = out
	return res, err
}

func (s system) RunAstro(ctx context.Context, w *astro.Workload, cl *cluster.Cluster, model *cost.Model, opts Opts) (Result, error) {
	if s.astro == nil {
		return Result{}, Unsupported("engine %s: %s", s.name, s.noAstro)
	}
	var out any
	res, err := s.traced(ctx, "astro", cl, func() (err error) { out, err = s.astro(w, cl, model, opts); return err })
	res.Output = out
	return res, err
}

// traced is the body of every end-to-end run: bail out on a dead
// context, run under the dual-clock span, report the cluster makespan.
func (s system) traced(ctx context.Context, workload string, cl *cluster.Cluster, run func() error) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if err := TraceRun(ctx, s.name, workload, cl, run); err != nil {
		return Result{}, err
	}
	return Result{Makespan: vtime.Duration(cl.Makespan())}, nil
}

func (s system) RunWithFaults(cl *cluster.Cluster, run func() error) (int, error) {
	if s.onFaults == nil {
		return 0, run()
	}
	return s.onFaults(cl, run)
}

// partitions resolves the data-parallel width: one partition per worker
// slot unless the harness overrides it.
func (o Opts) partitions(cl *cluster.Cluster) int {
	if o.Partitions == 0 {
		return cl.Workers()
	}
	return o.Partitions
}

// ingestRunner, stepRunner and coaddRunner bind a per-system function
// from internal/neuro or internal/astro as a labelled row, handing it
// the Input fields its figure fills.
func ingestRunner(label string, f func(*neuro.Workload, *cluster.Cluster, *cost.Model) (vtime.Duration, error)) Runner {
	return Runner{Label: label, Run: func(in Input, cl *cluster.Cluster, model *cost.Model) (vtime.Duration, error) {
		return f(in.Neuro, cl, model)
	}}
}

func stepRunner(label string, f func(*neuro.Workload, *cluster.Cluster, *cost.Model, string) (vtime.Duration, error)) Runner {
	return Runner{Label: label, Run: func(in Input, cl *cluster.Cluster, model *cost.Model) (vtime.Duration, error) {
		return f(in.Neuro, cl, model, in.Step)
	}}
}

func coaddRunner(label string, f func(*astro.Workload, *cluster.Cluster, *cost.Model, []*skymap.PatchExposure) (vtime.Duration, error)) Runner {
	return Runner{Label: label, Run: func(in Input, cl *cluster.Cluster, model *cost.Model) (vtime.Duration, error) {
		return f(in.Astro, cl, model, in.Stacks)
	}}
}
