// Astronomy example: run the abridged LSST pipeline (pre-processing →
// patch creation → co-addition → source detection) on the engines that
// run it end-to-end (Spark and Myria, from the registry), print the
// detected source catalog for the deepest patch, and compare the SciDB
// AQL co-addition against the UDF-internal iteration (the paper's
// Fig 12d contrast).
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"imagebench/internal/astro"
	"imagebench/internal/cluster"
	"imagebench/internal/engine"
)

func main() {
	const visits = 6
	w, err := astro.NewWorkload(visits)
	if err != nil {
		log.Fatal(err)
	}
	newCluster := func() *cluster.Cluster {
		cfg := cluster.DefaultConfig()
		cfg.Nodes = 8
		return cluster.New(cfg)
	}
	fmt.Printf("astronomy use case: %d visits (%.1f GB paper-scale input), %d true sky sources\n\n",
		visits, float64(w.InputModelBytes())/1e9, len(w.Truth))

	// End-to-end on the systems that could run it (paper Fig 10d) — the
	// registry supplies them in the paper's legend order.
	ctx := context.Background()
	for _, eng := range engine.Supporting(engine.CapAstroE2E) {
		cl := newCluster()
		if _, err := eng.RunAstro(ctx, w, cl, nil, engine.Opts{}); err != nil {
			log.Fatalf("%s: %v", eng.Name(), err)
		}
		fmt.Printf("%-8s %12v virtual\n", eng.Name(), cl.Makespan())
	}

	// Catalog of the patch with the most sources. Domain results
	// (decoded patches, source lists) stay behind the per-system entry
	// points, so rerun Spark's pipeline directly for them — virtual
	// time makes the rerun byte-identical to the timed one above.
	catCl := newCluster()
	sparkRes, err := astro.RunSpark(w, catCl, nil, astro.SparkOpts{Partitions: catCl.Workers()})
	if err != nil {
		log.Fatal(err)
	}
	total := 0
	for _, pr := range sparkRes.Patches {
		total += len(pr.Sources)
	}
	fmt.Printf("\nSpark detected %d sources across %d patches\n", total, len(sparkRes.Patches))
	var best *astro.PatchResult
	for _, pr := range sparkRes.Patches {
		if best == nil || len(pr.Sources) > len(best.Sources) {
			best = pr
		}
	}
	fmt.Printf("catalog for %v (top 5 by flux):\n", best.Patch)
	top := best.Sources
	sort.Slice(top, func(i, j int) bool { return top[i].Flux > top[j].Flux })
	for i, s := range top {
		if i == 5 {
			break
		}
		fmt.Printf("  source %d: centroid (%.1f, %.1f), flux %.0f, %d px\n", i+1, s.X, s.Y, s.Flux, s.NPix)
	}

	// Step 3A across engines (paper Fig 12d in miniature): rows are the
	// registry's co-addition runners (SciDB binds both its AQL and
	// incremental iterations).
	stacks, err := astro.BuildStacks(w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nco-addition step only:")
	for _, eng := range engine.Supporting(engine.CapAstroCoadd) {
		for _, r := range eng.Runners(engine.CapAstroCoadd) {
			d, err := r.Run(engine.Input{Astro: w, Stacks: stacks}, newCluster(), nil)
			if err != nil {
				log.Fatalf("coadd %s: %v", r.Label, err)
			}
			fmt.Printf("  %-18s %10.1fs virtual\n", r.Label, d.Seconds())
		}
	}
}
