// Tuning example: the paper's Section 5.3 knobs in one program — Myria
// workers per node (Fig 13), Spark input partitions (Fig 14), and Myria's
// memory-management strategies under pressure (Fig 15).
package main

import (
	"fmt"
	"log"

	"imagebench/internal/astro"
	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/myria"
	"imagebench/internal/neuro"
	"imagebench/internal/synth"
)

func main() {
	// --- Fig 13: Myria workers per node. ---
	ncfg := synth.DefaultNeuro(12)
	ncfg.T, ncfg.B0 = 48, 3
	w, err := neuro.NewWorkloadCfg(ncfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Myria workers per node (neuroscience, 12 subjects, 8 nodes):")
	for _, workers := range []int{1, 2, 4, 8} {
		cl := newCluster(8, 0)
		if _, err := neuro.RunMyria(w, cl, cost.Default(), neuro.MyriaOpts{WorkersPerNode: workers}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %d workers/node: %8.0fs virtual\n", workers, cl.Makespan().Seconds())
	}

	// --- Fig 14: Spark input partitions. ---
	w1, err := neuro.NewWorkloadCfg(func() synth.NeuroConfig {
		c := synth.DefaultNeuro(1)
		c.T, c.B0 = 48, 3
		return c
	}())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSpark input partitions (neuroscience, 1 subject, 8 nodes × 8 cores):")
	for _, parts := range []int{1, 4, 16, 48} {
		cl := newCluster(8, 0)
		if _, err := neuro.RunSpark(w1, cl, cost.Default(), neuro.SparkOpts{Partitions: parts}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %3d partitions: %8.0fs virtual\n", parts, cl.Makespan().Seconds())
	}

	// --- Fig 15: Myria memory-management strategies under pressure. ---
	wa, err := astro.NewWorkload(6)
	if err != nil {
		log.Fatal(err)
	}
	// Probe the pipelined peak, then give the cluster 60% of it.
	probe := newCluster(8, 1<<50)
	if _, err := astro.RunMyria(wa, probe, cost.Default(), astro.MyriaOpts{}); err != nil {
		log.Fatal(err)
	}
	budget := probe.MaxHighWater() * 6 / 10
	fmt.Printf("\nMyria memory strategies (astronomy, 6 visits, %d MB/node budget):\n", budget>>20)
	for _, mode := range []myria.MemoryMode{myria.Pipelined, myria.Materialized, myria.MultiQuery} {
		cl := newCluster(8, budget)
		opts := astro.MyriaOpts{Mode: mode}
		if mode == myria.MultiQuery {
			opts.ChunkVisits = 2
		}
		if _, err := astro.RunMyria(wa, cl, cost.Default(), opts); err != nil {
			fmt.Printf("  %-12s FAILED: %v\n", mode, err)
			continue
		}
		fmt.Printf("  %-12s %8.0fs virtual\n", mode, cl.Makespan().Seconds())
	}
}

func newCluster(nodes int, mem int64) *cluster.Cluster {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = nodes
	if mem > 0 {
		cfg.MemPerNode = mem
	}
	return cluster.New(cfg)
}
