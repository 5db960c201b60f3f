package core

import (
	"context"
	"fmt"

	"imagebench/internal/engine"
	"imagebench/internal/vtime"
)

// Figure 11: data-ingest times for the neuroscience benchmark on the
// 16-node cluster, log-scale in the paper. The rows come from the
// engine registry: the ingest runners of every engine holding
// CapNeuroIngest (SciDB binds two — from_array and aio_input).

func init() {
	Register(&Experiment{
		ID:    "fig11",
		Title: "Data ingest times (neuroscience)",
		Paper: "Order-of-magnitude spread: Myria fastest (CSV file list, parallel), Spark close (master enumerates bucket first), Dask constant until >16 subjects, TensorFlow slow (all data through the master), SciDB-1 (from_array) slowest by ~10×, SciDB-2 (aio_input) on par with Spark/Myria but pays NIfTI→CSV conversion.",
		Run:   runFig11,
		Check: checkFig11,
	})
}

// stepRunners expands the registry's engines holding the step-level
// capability c into their labelled rows, in paper order.
func stepRunners(p Profile, c engine.Cap) ([]engine.Runner, error) {
	engines, err := p.engines(c)
	if err != nil {
		return nil, err
	}
	var rows []engine.Runner
	for _, e := range engines {
		rows = append(rows, e.Runners(c)...)
	}
	return rows, nil
}

// runStepFigure fills one step-level figure (Fig 11, Fig 12a–d): a row
// per runner of c, a column per size, each cell measured on a fresh
// cluster under its own span. input builds a column's workload once,
// outside every timing.
func runStepFigure(ctx context.Context, p Profile, title, workload string, c engine.Cap, sizes []int, input func(n int) (engine.Input, error)) (*Table, error) {
	rows, err := stepRunners(p, c)
	if err != nil {
		return nil, err
	}
	rowNames := make([]string, len(rows))
	for i, r := range rows {
		rowNames[i] = r.Label
	}
	t := NewTable(title, "virtual s", rowNames, labels(sizes))
	ins, err := perSize(ctx, sizes, input)
	if err != nil {
		return nil, err
	}
	err = forEachGridCell(ctx, len(sizes), len(rows), func(col, row int) error {
		n, r := sizes[col], rows[row]
		cl := newCluster(defaultNodes(p))
		var d vtime.Duration
		err := engine.TraceRun(ctx, r.Label, workload, cl, func() error {
			var err error
			d, err = r.Run(ins[col], cl, model)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %s at %d: %w", title, r.Label, n, err)
		}
		t.Set(r.Label, colLabel(n), seconds(d))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

func runFig11(ctx context.Context, p Profile) (*Table, error) {
	return runStepFigure(ctx, p, "Fig 11: data ingest times", "neuro", engine.CapNeuroIngest, p.NeuroSubjects,
		func(n int) (engine.Input, error) {
			w, err := neuroWorkload(p, n)
			return engine.Input{Neuro: w}, err
		})
}

func checkFig11(t *Table) error {
	last := t.ColNames[len(t.ColNames)-1]
	// Myria is fastest; Spark within reach; SciDB-1 an order of magnitude
	// slower than SciDB-2; TensorFlow slower than the parallel ingesters.
	if err := wantLess("Myria < Spark", t.Get("Myria", last), t.Get("Spark", last)); err != nil {
		return err
	}
	if err := wantRatioAtLeast("SciDB-1 ~10× SciDB-2", t.Get("SciDB-1", last), t.Get("SciDB-2", last), 5); err != nil {
		return err
	}
	if err := wantRatioAtLeast("TensorFlow slower than Spark", t.Get("TensorFlow", last), t.Get("Spark", last), 1.5); err != nil {
		return err
	}
	// SciDB-2's conversion overhead keeps it behind Spark and Myria.
	if err := wantLess("Spark < SciDB-2", t.Get("Spark", last), t.Get("SciDB-2", last)); err != nil {
		return err
	}
	return nil
}
