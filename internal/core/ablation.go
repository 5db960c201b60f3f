package core

import (
	"context"
	"fmt"
	"time"

	"imagebench/internal/cost"
	"imagebench/internal/dask"
	"imagebench/internal/myria"
	"imagebench/internal/objstore"
	"imagebench/internal/spark"
	"imagebench/internal/vtime"
)

// Ablations: the paper attributes each engine's results to a specific
// design property (Spark's Python-worker tax, Myria's predicate pushdown,
// Dask's work stealing and task fusion). These experiments switch the
// properties off one at a time and measure what each is worth, on
// synthetic workloads shaped like the pipelines' steps. They are extensions beyond the
// paper's artifacts (the paper asserts the mechanisms; the ablations
// quantify them in this reproduction). Each ablation belongs to one
// engine and registers through registerForEngine, so it follows its
// engine in and out of the registry and respects the profile's Systems
// filter.

func init() {
	registerForEngine("Spark", &Experiment{
		ID:    "abl-spark-pytax",
		Title: "Ablation: Spark Python-worker serialization tax",
		Paper: "Section 5.2.2 attributes Spark's ~10× filter gap to serializing Python code and data; this ablation runs the same map with and without the Python boundary.",
		Run:   runAblSparkPyTax,
		Check: func(t *Table) error {
			last := t.ColNames[len(t.ColNames)-1]
			return wantRatioAtLeast("python ≫ native", t.Get("Python UDF", last), t.Get("Native op", last), 1.5)
		},
	})

	registerForEngine("Dask", &Experiment{
		ID:    "abl-dask-fusion",
		Title: "Ablation: Dask linear-chain task fusion",
		Paper: "Dask's per-task scheduler dispatch grows with cluster size (Section 5.1); fusing per-subject chains removes most dispatches. Extension: the paper's Dask version fuses by default.",
		Run:   runAblDaskFusion,
		Check: func(t *Table) error {
			last := t.ColNames[len(t.ColNames)-1]
			return wantLess("fused < unfused", t.Get("Fused", last), t.Get("Unfused", last))
		},
	})

	registerForEngine("Dask", &Experiment{
		ID:    "abl-dask-stealing",
		Title: "Ablation: Dask work stealing",
		Paper: "Section 5.1: Dask's scheduler 'attempts to move tasks among different machines via aggressive work stealing'. With data born on one node, stealing buys parallelism; sticky scheduling serializes on the data's host.",
		Run:   runAblDaskStealing,
		Check: func(t *Table) error {
			last := t.ColNames[len(t.ColNames)-1]
			return wantLess("stealing < sticky", t.Get("Stealing", last), t.Get("Sticky", last))
		},
	})

	registerForEngine("Myria", &Experiment{
		ID:    "abl-myria-pushdown",
		Title: "Ablation: Myria selection pushdown",
		Paper: "Section 5.2.2: 'Myria pushes the selection down to PostgreSQL' — the reason it wins the filter step. The alternative routes every tuple through the Python boundary.",
		Run:   runAblMyriaPushdown,
		Check: func(t *Table) error {
			for _, col := range t.ColNames {
				if err := wantLess("pushdown < UDF filter @ "+col, t.Get("Pushdown", col), t.Get("UDF filter", col)); err != nil {
					return err
				}
			}
			return nil
		},
	})
}

// runAblSparkPyTax maps the same records once through a Python lambda
// and once through a native (JVM) operator.
func runAblSparkPyTax(ctx context.Context, p Profile) (*Table, error) {
	if _, err := p.requireEngine("Spark"); err != nil {
		return nil, err
	}
	sizes := []int{16, 32, 64}
	cols := make([]string, len(sizes))
	for i, n := range sizes {
		cols[i] = fmt.Sprintf("%d recs", n)
	}
	t := NewTable("Ablation: Spark Python tax (identity map)", "virtual s", []string{"Python UDF", "Native op"}, cols)
	rows := t.RowNames
	err := forEachGridCell(ctx, len(sizes), len(rows), func(col, row int) error {
		n, native := sizes[col], rows[row] == "Native op"
		cl := newCluster(defaultNodes(p))
		s := spark.NewSession(cl, objstore.New(), model)
		recs := make([]spark.Pair, n)
		for i := range recs {
			recs[i] = spark.Pair{Key: fmt.Sprintf("k%03d", i), Value: i, Size: 64 << 20}
		}
		// A chain of narrow maps, as a multi-step pipeline would run:
		// the Python variant crosses the worker boundary both ways at
		// every step, the native variant never does.
		rdd := s.Parallelize("xs", recs, defaultNodes(p)*8)
		for step := 0; step < 6; step++ {
			rdd = rdd.Map(spark.UDF{
				Name: fmt.Sprintf("identity%d", step), Op: cost.Filter, Native: native,
				F: func(pr spark.Pair) []spark.Pair { return []spark.Pair{pr} },
			})
		}
		h, err := rdd.Materialize()
		if err != nil {
			return err
		}
		t.Set(rows[row], cols[col], seconds(vtime.Duration(h.End)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// ablChains builds nChains independent linear pipelines of the given
// depth, sources pinned to pinNode (or free when negative). A zero
// stageCost uses the calibrated denoise throughput over the 64 MB
// intermediates (compute-bound chains); a non-zero stageCost makes every
// stage that cheap fixed duration (dispatch-bound chains).
func ablChains(s *dask.Session, nChains, depth, pinNode int, stageCost vtime.Duration) []*dask.Delayed {
	var roots []*dask.Delayed
	for c := 0; c < nChains; c++ {
		cur := s.DelayedCost(fmt.Sprintf("src%d", c),
			func(int64) vtime.Duration { return 50 * time.Millisecond },
			nil,
			func([]any) (any, int64, error) { return 0.0, 64 << 20, nil })
		if pinNode >= 0 {
			// Pinning is only available through Fetch in the public API;
			// emulate by a fetch-like source via the session store.
			cur = s.Fetch(fmt.Sprintf("abl/%03d", c), pinNode, func(o objstore.Object) (any, int64, error) {
				return 0.0, o.Size(), nil
			})
		}
		for st := 0; st < depth; st++ {
			prev := cur
			name := fmt.Sprintf("c%d/s%d", c, st)
			next := func(args []any) (any, int64, error) { return args[0], 64 << 20, nil }
			if stageCost > 0 {
				cur = s.DelayedCost(name, func(int64) vtime.Duration { return stageCost }, []*dask.Delayed{prev}, next)
			} else {
				cur = s.Delayed(name, cost.Denoise, []*dask.Delayed{prev}, next)
			}
		}
		roots = append(roots, cur)
	}
	return roots
}

func runAblDaskFusion(ctx context.Context, p Profile) (*Table, error) {
	if _, err := p.requireEngine("Dask"); err != nil {
		return nil, err
	}
	depths := []int{2, 4, 8}
	cols := make([]string, len(depths))
	for i, d := range depths {
		cols[i] = fmt.Sprintf("depth %d", d)
	}
	// Many cheap tasks: the regime where the serial per-task dispatch
	// (1.5 ms + 60 µs/node) is the bottleneck fusion removes.
	t := NewTable("Ablation: Dask task fusion (256 cheap chains)", "virtual s", []string{"Fused", "Unfused"}, cols)
	rows := t.RowNames
	err := forEachGridCell(ctx, len(depths), len(rows), func(col, row int) error {
		cl := newCluster(defaultNodes(p))
		s := dask.NewSession(cl, objstore.New(), model)
		if rows[row] == "Fused" {
			s.EnableFusion()
		}
		roots := ablChains(s, 256, depths[col], -1, 5*time.Millisecond)
		h, err := s.Compute(roots...)
		if err != nil {
			return err
		}
		t.Set(rows[row], cols[col], seconds(vtime.Duration(h.End)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

func runAblDaskStealing(ctx context.Context, p Profile) (*Table, error) {
	if _, err := p.requireEngine("Dask"); err != nil {
		return nil, err
	}
	counts := []int{8, 16, 32}
	cols := make([]string, len(counts))
	for i, n := range counts {
		cols[i] = fmt.Sprintf("%d chains", n)
	}
	t := NewTable("Ablation: Dask work stealing (data born on node 0)", "virtual s", []string{"Stealing", "Sticky"}, cols)
	rows := t.RowNames
	err := forEachGridCell(ctx, len(counts), len(rows), func(col, row int) error {
		n := counts[col]
		cl := newCluster(defaultNodes(p))
		store := objstore.New()
		for c := 0; c < n; c++ {
			store.Put(fmt.Sprintf("abl/%03d", c), nil, 64<<20)
		}
		s := dask.NewSession(cl, store, model)
		if rows[row] == "Sticky" {
			s.StealLocality = vtime.Duration(time.Hour)
		}
		roots := ablChains(s, n, 4, 0, 0)
		h, err := s.Compute(roots...)
		if err != nil {
			return err
		}
		t.Set(rows[row], cols[col], seconds(vtime.Duration(h.End)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

func runAblMyriaPushdown(ctx context.Context, p Profile) (*Table, error) {
	if _, err := p.requireEngine("Myria"); err != nil {
		return nil, err
	}
	selectivities := []int{10, 50, 90}
	cols := make([]string, len(selectivities))
	for i, s := range selectivities {
		cols[i] = fmt.Sprintf("keep %d%%", s)
	}
	t := NewTable("Ablation: Myria selection pushdown", "virtual s", []string{"Pushdown", "UDF filter"}, cols)
	rows := t.RowNames
	err := forEachGridCell(ctx, len(selectivities), len(rows), func(col, row int) error {
		sel := selectivities[col]
		cl := newCluster(defaultNodes(p))
		store := objstore.New()
		const nObjs = 64
		for i := 0; i < nObjs; i++ {
			store.Put(fmt.Sprintf("abl/%03d", i), []byte{byte(i)}, 16<<20)
		}
		e := myria.New(cl, store, model, myria.DefaultConfig())
		rel, err := e.Ingest("Images", "abl/", func(o objstore.Object) []myria.Tuple {
			return []myria.Tuple{{Key: o.Key, Value: int(o.Data[0]), Size: o.ModelBytes}}
		})
		if err != nil {
			return err
		}
		keep := func(tp myria.Tuple) bool { return tp.Value.(int)*100 < sel*nObjs }
		q := e.NewQuery()
		if rows[row] == "Pushdown" {
			q.ScanWhere(rel, keep)
		} else {
			q.Apply(q.Scan(rel), myria.PyUDF{Name: "filter", Op: cost.Filter, F: func(tp myria.Tuple) []myria.Tuple {
				if keep(tp) {
					return []myria.Tuple{tp}
				}
				return nil
			}})
		}
		h, err := q.Finish()
		if err != nil {
			return err
		}
		t.Set(rows[row], cols[col], seconds(vtime.Duration(h.End)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
