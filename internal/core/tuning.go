package core

import (
	"context"
	"fmt"
	"math"

	"imagebench/internal/astro"
	"imagebench/internal/cluster"
	"imagebench/internal/fan"
	"imagebench/internal/myria"
	"imagebench/internal/neuro"
	"imagebench/internal/vtime"
)

// Figures 13–15 and the Section 5.3 tuning studies. These are
// per-engine tuning sweeps (one engine, one knob), so they register
// through registerForEngine and call the engine's own entry points
// directly — the cross-engine comparisons live in fig10–fig12/ft*.

func init() {
	registerForEngine("Myria", &Experiment{
		ID:      "fig13",
		Ignores: AxisNodes | AxisVisits | AxisFailures,
		Title:   "Myria: workers per node (neuroscience, largest dataset)",
		Paper:   "4 workers per 8-core node is optimal; 1–2 under-utilize, 8 contend for memory/CPU/disk.",
		Run:     runFig13,
		Check: func(t *Table) error {
			col := t.ColNames[0]
			best := t.Get("4", col)
			for _, w := range []string{"1", "2", "8"} {
				if err := wantLess("4 workers beat "+w, best, t.Get(w, col)); err != nil {
					return err
				}
			}
			return nil
		},
	})

	registerForEngine("Spark", &Experiment{
		ID:      "fig14",
		Ignores: allAxes,
		Title:   "Spark: input data partitions (neuroscience, 1 subject)",
		Paper:   "Dramatic improvement from 1 to ~cluster-slot partitions; ≥50% gain from 16 to 97; flat beyond 128 (= 16 nodes × 8 cores).",
		Run:     runFig14,
		Check:   checkFig14,
	})

	registerForEngine("Myria", &Experiment{
		ID:      "fig15",
		Ignores: AxisNodes | AxisSubjects | AxisFailures,
		Title:   "Myria: memory-management strategies (astronomy)",
		Paper:   "Pipelined fastest (8–11% over materialized, 15–23% over multi-query) while data fits; fails with OOM under pressure, where materialized wins; at the largest scale only chunked multi-query execution survives.",
		Run:     runFig15,
		Check:   checkFig15,
	})

	registerForEngine("Spark", &Experiment{
		ID:      "sec533",
		Ignores: AxisNodes | AxisVisits | AxisFailures,
		Title:   "Spark: input caching (neuroscience end-to-end)",
		Paper:   "Caching the input RDD yields a consistent ~7–8% improvement across input sizes.",
		Run:     runSec533,
		Check:   checkSec533,
	})
}

func runFig13(ctx context.Context, p Profile) (*Table, error) {
	if _, err := p.requireEngine("Myria"); err != nil {
		return nil, err
	}
	// The sweep only makes sense when there is enough work to saturate
	// 8 workers per node: ensure at least 2 volumes per worker slot.
	nodes := defaultNodes(p)
	n := p.NeuroSubjects[len(p.NeuroSubjects)-1]
	if minSubj := (2*nodes*8 + p.NeuroT - 1) / p.NeuroT; n < minSubj {
		n = minSubj
	}
	w, err := neuroWorkload(p, n)
	if err != nil {
		return nil, err
	}
	workerCounts := []string{"1", "2", "4", "8"}
	t := NewTable(fmt.Sprintf("Fig 13: Myria workers per node (%d subjects)", n),
		"virtual s", workerCounts, []string{"runtime"})
	err = fan.Each(ctx, len(workerCounts), 0, func(i int) error {
		wc := workerCounts[i]
		cl := newCluster(nodes)
		_, err := neuro.RunMyria(w, cl, model, neuro.MyriaOpts{WorkersPerNode: parseInt(wc)})
		if err != nil {
			return fmt.Errorf("myria %s workers: %w", wc, err)
		}
		t.Set(wc, "runtime", seconds(vtime.Duration(cl.Makespan())))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

func runFig14(ctx context.Context, p Profile) (*Table, error) {
	if _, err := p.requireEngine("Spark"); err != nil {
		return nil, err
	}
	w, err := neuroWorkload(p, 1)
	if err != nil {
		return nil, err
	}
	parts := []int{1, 4, 16, 32, 64, 97, 128, 256}
	if p.base() == "quick" {
		parts = []int{1, 4, 16, 32, 64}
	}
	t := NewTable("Fig 14: Spark input partitions (1 subject)", "virtual s", labels(parts), []string{"runtime"})
	err = fan.Each(ctx, len(parts), 0, func(i int) error {
		n := parts[i]
		cl := newCluster(defaultNodes(p))
		_, err := neuro.RunSpark(w, cl, model, neuro.SparkOpts{Partitions: n})
		if err != nil {
			return fmt.Errorf("spark %d partitions: %w", n, err)
		}
		t.Set(colLabel(n), "runtime", seconds(vtime.Duration(cl.Makespan())))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

func checkFig14(t *Table) error {
	one := t.Get("1", "runtime")
	sixteen := t.Get("16", "runtime")
	if err := wantRatioAtLeast("1 partition ≫ 16 partitions", one, sixteen, 1.5); err != nil {
		return err
	}
	// More partitions than tasks×slots stops helping: the last two sweep
	// points are within 20% of each other.
	last := t.RowNames[len(t.RowNames)-1]
	prev := t.RowNames[len(t.RowNames)-2]
	return wantWithin("flat tail", t.Get(last, "runtime"), t.Get(prev, "runtime"), 0.2)
}

var fig15Modes = []string{"pipelined", "materialized", "multi-query"}

func runFig15(ctx context.Context, p Profile) (*Table, error) {
	if _, err := p.requireEngine("Myria"); err != nil {
		return nil, err
	}
	t := NewTable("Fig 15: Myria memory-management strategies (astronomy)", "virtual s",
		fig15Modes, labels(p.AstroVisits))
	nodes := defaultNodes(p)
	// Shrink per-node memory so the largest sweep point exceeds what
	// pipelined execution can hold (the paper grows data against fixed
	// 61 GB nodes; we scale memory against the sweep instead): probe the
	// pipelined peak memory at the smallest and largest sweep points
	// with an effectively unlimited budget, then set the node budget
	// between them, so that small inputs fit and the largest does not.
	ws, err := perSize(ctx, p.AstroVisits, func(n int) (*astro.Workload, error) { return astroWorkload(p, n) })
	if err != nil {
		return nil, err
	}
	ends := []int{0, len(ws) - 1}
	var hw [2]int64
	err = fan.Each(ctx, len(ends), 0, func(i int) error {
		cfg := cluster.DefaultConfig()
		cfg.Nodes = nodes
		cfg.MemPerNode = 1 << 50
		cl := cluster.New(cfg)
		if _, err := astro.RunMyria(ws[ends[i]], cl, model, astro.MyriaOpts{}); err != nil {
			return err
		}
		hw[i] = cl.MaxHighWater()
		return nil
	})
	if err != nil {
		return nil, err
	}
	memPerNode := (hw[0] + hw[1]) / 2
	err = forEachGridCell(ctx, len(ws), len(fig15Modes), func(col, row int) error {
		n, mode := p.AstroVisits[col], fig15Modes[row]
		cfg := cluster.DefaultConfig()
		cfg.Nodes = nodes
		cfg.MemPerNode = memPerNode
		cl := cluster.New(cfg)
		opts := astro.MyriaOpts{}
		switch mode {
		case "materialized":
			opts.Mode = myria.Materialized
		case "multi-query":
			opts.Mode = myria.MultiQuery
			opts.ChunkVisits = max(1, n/4)
		}
		_, err := astro.RunMyria(ws[col], cl, model, opts)
		if err != nil {
			if errorsIsOOM(err) {
				// FAIL cell, like the paper's missing bars.
				return nil
			}
			return fmt.Errorf("myria %s at %d visits: %w", mode, n, err)
		}
		t.Set(mode, colLabel(n), seconds(vtime.Duration(cl.Makespan())))
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "NA = query failed with out-of-memory (pipelined under pressure)")
	return t, nil
}

func errorsIsOOM(err error) bool {
	for e := err; e != nil; {
		if e == cluster.ErrOOM {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

func checkFig15(t *Table) error {
	first := t.ColNames[0]
	last := t.ColNames[len(t.ColNames)-1]
	// When memory is plentiful, pipelined is fastest and multi-query
	// slowest.
	if err := wantLess("pipelined < materialized (small)", t.Get("pipelined", first), t.Get("materialized", first)); err != nil {
		return err
	}
	if err := wantLess("materialized < multi-query (small)", t.Get("materialized", first), t.Get("multi-query", first)); err != nil {
		return err
	}
	// Under pressure, pipelined fails while materialized completes.
	if !math.IsNaN(t.Get("pipelined", last)) {
		return fmt.Errorf("pipelined should OOM at %s visits", last)
	}
	if math.IsNaN(t.Get("materialized", last)) {
		return fmt.Errorf("materialized should survive at %s visits", last)
	}
	if math.IsNaN(t.Get("multi-query", last)) {
		return fmt.Errorf("multi-query should survive at %s visits", last)
	}
	return nil
}

func runSec533(ctx context.Context, p Profile) (*Table, error) {
	if _, err := p.requireEngine("Spark"); err != nil {
		return nil, err
	}
	t := NewTable("Sec 5.3.3: Spark input caching", "virtual s",
		[]string{"cached", "uncached"}, labels(p.NeuroSubjects))
	ws, err := perSize(ctx, p.NeuroSubjects, func(n int) (*neuro.Workload, error) { return neuroWorkload(p, n) })
	if err != nil {
		return nil, err
	}
	err = forEachGridCell(ctx, len(ws), len(t.RowNames), func(col, row int) error {
		n, variant := p.NeuroSubjects[col], t.RowNames[row]
		cl := newCluster(defaultNodes(p))
		_, err := neuro.RunSpark(ws[col], cl, model, neuro.SparkOpts{
			Partitions: cl.Workers(),
			CacheInput: variant == "cached",
		})
		if err != nil {
			return fmt.Errorf("spark %s at %d subjects: %w", variant, n, err)
		}
		t.Set(variant, colLabel(n), seconds(vtime.Duration(cl.Makespan())))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

func checkSec533(t *Table) error {
	// Caching wins consistently, by a modest margin.
	for _, c := range t.ColNames {
		if err := wantLess("cached < uncached at "+c, t.Get("cached", c), t.Get("uncached", c)); err != nil {
			return err
		}
		gain := (t.Get("uncached", c) - t.Get("cached", c)) / t.Get("uncached", c)
		if gain > 0.5 {
			return fmt.Errorf("caching gain %.0f%% at %s subjects implausibly large", gain*100, c)
		}
	}
	return nil
}
