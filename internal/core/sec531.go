package core

import (
	"context"
	"fmt"

	"imagebench/internal/astro"
	"imagebench/internal/neuro"
	"imagebench/internal/vtime"
)

// Section 5.3.1 tuning studies that are described in text rather than
// figures: TensorFlow's manual work assignment and SciDB's chunk-size
// sensitivity. Per-engine tuning studies register through
// registerForEngine, so they follow their engine in and out of the
// registry and respect the profile's Systems filter.

func init() {
	registerForEngine("TensorFlow", &Experiment{
		ID:    "sec531tf",
		Title: "TensorFlow: volume-to-worker assignments (filter step)",
		Paper: "Different manual assignments of image volumes to workers differ by ~2× in total runtime.",
		Run:   runSec531TF,
		Check: func(t *Table) error {
			col := t.ColNames[0]
			return wantRatioAtLeast("worst ≥ 1.5× best",
				t.Get("blocked", col), t.Get("round-robin", col), 1.5)
		},
	})

	registerForEngine("SciDB", &Experiment{
		ID:    "sec531scidb",
		Title: "SciDB: chunk-size sensitivity (co-addition)",
		Paper: "[1000×1000] chunks are best; [500×500] is ~3× slower (per-chunk overhead), [1500×1500] +22%, [2000×2000] +55%.",
		Run:   runSec531SciDB,
		Check: func(t *Table) error {
			col := t.ColNames[0]
			best := t.Get("1000x1000", col)
			if err := wantRatioAtLeast("500² ≥ 2× slower", t.Get("500x500", col), best, 2); err != nil {
				return err
			}
			if err := wantRatioAtLeast("1500² slower", t.Get("1500x1500", col), best, 1.05); err != nil {
				return err
			}
			if err := wantRatioAtLeast("2000² slower still", t.Get("2000x2000", col), t.Get("1500x1500", col), 1.02); err != nil {
				return err
			}
			return nil
		},
	})
}

func runSec531TF(ctx context.Context, p Profile) (*Table, error) {
	if _, err := p.requireEngine("TensorFlow"); err != nil {
		return nil, err
	}
	n := p.NeuroSubjects[len(p.NeuroSubjects)-1]
	w, err := neuroWorkload(p, n)
	if err != nil {
		return nil, err
	}
	nodes := defaultNodes(p)
	nItems := n * p.NeuroT
	strategies := map[string][]int{
		"round-robin":  nil, // engine default
		"half-devices": assignment(nItems, nodes, func(i int) int { return i % max(1, nodes/2) }),
		"blocked":      assignment(nItems, nodes, func(i int) int { return i * nodes / nItems }),
	}
	rows := []string{"round-robin", "half-devices", "blocked"}
	t := NewTable(fmt.Sprintf("Sec 5.3.1: TensorFlow assignments, filter step (%d subjects)", n), "virtual s", rows, []string{"runtime"})
	err = forEachCell(ctx, len(rows), func(i int) error {
		name := rows[i]
		cl := newCluster(nodes)
		d, err := neuro.TFFilterTime(w, cl, model, strategies[name])
		if err != nil {
			return fmt.Errorf("tf %s: %w", name, err)
		}
		t.Set(name, "runtime", seconds(vtime.Duration(d)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

func assignment(n, devices int, f func(i int) int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = f(i) % devices
	}
	return out
}

// chunk edge → paper-scale bytes: edge² pixels × 3 planes × 4 bytes.
func chunkBytesForEdge(edge int) int64 { return int64(edge) * int64(edge) * 3 * 4 }

func runSec531SciDB(ctx context.Context, p Profile) (*Table, error) {
	if _, err := p.requireEngine("SciDB"); err != nil {
		return nil, err
	}
	n := p.AstroVisits[len(p.AstroVisits)-1]
	w, err := astroWorkload(p, n)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err // before the serial prefix, not only before the first cell
	}
	stacks, err := astro.BuildStacks(w)
	if err != nil {
		return nil, err
	}
	edges := []int{500, 1000, 1500, 2000}
	var rows []string
	for _, e := range edges {
		rows = append(rows, fmt.Sprintf("%dx%d", e, e))
	}
	t := NewTable(fmt.Sprintf("Sec 5.3.1: SciDB chunk sizes (%d visits)", n), "virtual s", rows, []string{"runtime"})
	err = forEachCell(ctx, len(edges), func(i int) error {
		e := edges[i]
		cl := newCluster(defaultNodes(p))
		dur, err := astro.SciDBCoaddRunner(astro.SciDBOpts{ChunkBytes: chunkBytesForEdge(e)})(w, cl, model, stacks)
		if err != nil {
			return fmt.Errorf("scidb chunk %d: %w", e, err)
		}
		t.Set(rows[i], "runtime", seconds(dur))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
