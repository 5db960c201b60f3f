// Quickstart: generate one synthetic dMRI subject, run the neuroscience
// pipeline end-to-end on the Spark engine over a simulated 4-node
// cluster, and print the segmentation and FA statistics plus the
// simulated runtime.
package main

import (
	"fmt"
	"log"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/neuro"
)

func main() {
	// Stage one subject's data (NIfTI + per-volume .npy) in the
	// in-memory object store.
	w, err := neuro.NewWorkload(1)
	if err != nil {
		log.Fatal(err)
	}

	// A simulated 4-node cluster (8 worker slots per node).
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 4
	cl := cluster.New(cfg)

	// Run segmentation → denoising → diffusion-tensor fit on Spark.
	out, err := neuro.RunSpark(w, cl, cost.Default(), neuro.SparkOpts{Partitions: cl.Workers()})
	if err != nil {
		log.Fatal(err)
	}
	// The pixels are computed here, when the output is first read.
	res, err := out.Force()
	if err != nil {
		log.Fatal(err)
	}

	sr := res.Subjects[0]
	maskFrac := float64(sr.Mask.Summarize().NonZero) / float64(sr.Mask.Len())
	fa := sr.FA.Summarize()
	fmt.Printf("subject 0: brain mask covers %.0f%% of the volume\n", maskFrac*100)
	fmt.Printf("subject 0: FA map mean %.3f, max %.3f (anisotropic band present: %v)\n",
		fa.Mean, fa.Max, fa.Max > 0.4)
	fmt.Printf("simulated cluster time: %v over %d tasks (%.0f%% worker utilization)\n",
		cl.Makespan(), cl.Tasks(), cl.Utilization()*100)

	// Sanity: the distributed result matches the single-node reference.
	ref, err := neuro.Reference(w)
	if err != nil {
		log.Fatal(err)
	}
	diff := maxDiff(sr.FA.Data, ref.Subjects[0].FA.Data)
	fmt.Printf("max |FA - reference FA| = %g\n", diff)
}

func maxDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}
