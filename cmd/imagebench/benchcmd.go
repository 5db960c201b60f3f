package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"imagebench/internal/bench"
	"imagebench/internal/core"
)

// benchMain implements `imagebench bench`: run the measured-performance
// harness over the selected cases, write the JSON artifact, and — when
// a baseline is given — diff against it, returning a nonzero exit code
// on regression. It returns the process exit code so tests can drive
// the full flow, including the regression path, without exec'ing.
func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("imagebench bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	profile := fs.String("profile", "quick", `workload profile for the experiment cases: "quick" or "full"`)
	reps := fs.Int("reps", 3, "repetitions per case")
	baseline := fs.String("baseline", "", "baseline artifact to diff against (e.g. BENCH_8.json); exit 1 on regression")
	out := fs.String("out", "", "write this run's artifact (JSON) to this file")
	tolerance := fs.Float64("tolerance", 0.25, "allowed relative increase for wall time and allocations (0.25 = +25%);\nvirtual-seconds metrics are always gated exactly")
	list := fs.Bool("list", false, "list case names and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: imagebench bench [flags] [case|prefix...|all]...\n\n"+
			"Runs benchmark cases sequentially for -reps repetitions, recording wall\n"+
			"time, allocations, and virtual seconds per case into a schema-versioned\n"+
			"JSON artifact, then diffs against -baseline. Examples:\n\n"+
			"  imagebench bench -reps 3 -out BENCH_8.json all\n"+
			"  imagebench bench -baseline BENCH_8.json -tolerance 0.3 kernel/...\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	p, err := core.ProfileByName(*profile)
	if err != nil {
		fmt.Fprintf(stderr, "imagebench bench: %v\n", err)
		return 2
	}
	cases, err := bench.SelectCases(p, fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "imagebench bench: %v\n", err)
		return 2
	}
	if *list {
		fmt.Fprintln(stdout, "metrics recorded per case (how the baseline comparator gates each):")
		for _, m := range bench.StandardMetrics() {
			fmt.Fprintf(stdout, "  %-16s %s\n", m, bench.MetricClass(m))
		}
		fmt.Fprintln(stdout, "\nserve/... cases additionally record:")
		for _, m := range bench.ServeMetrics() {
			fmt.Fprintf(stdout, "  %-16s %s\n", m, bench.MetricClass(m))
		}
		fmt.Fprintln(stdout, "\ncases:")
		for _, c := range cases {
			fmt.Fprintln(stdout, c.Name)
		}
		return 0
	}

	// Load the baseline before spending minutes measuring: a malformed
	// or old-schema file should fail immediately.
	var base *bench.Artifact
	if *baseline != "" {
		base, err = bench.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintf(stderr, "imagebench bench: %v\n", err)
			return 2
		}
	}

	art, err := bench.Run(context.Background(), cases, bench.Options{
		Reps:    *reps,
		Profile: p.Name,
		Progress: func(name string, res bench.CaseResult) {
			wall := res.Metrics[bench.MetricWallNS]
			fmt.Fprintf(stdout, "%-24s %10.1fms min wall  %8.0f allocs\n",
				name, wall.Min/1e6, res.Metrics[bench.MetricAllocs].Mean)
		},
	})
	if err != nil {
		fmt.Fprintf(stderr, "imagebench bench: %v\n", err)
		return 1
	}

	if *out != "" {
		if err := art.WriteFile(*out); err != nil {
			fmt.Fprintf(stderr, "imagebench bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}

	if base != nil {
		if explicitSubset(fs.Args()) {
			// The user selected specific cases: gate only those, not
			// the baseline cases this run never attempted.
			names := make([]string, 0, len(cases))
			for _, c := range cases {
				names = append(names, c.Name)
			}
			base = base.Restrict(names)
		}
		rep := bench.Compare(base, art, bench.CompareOpts{Tolerance: *tolerance})
		fmt.Fprint(stdout, rep.Render())
		if !rep.OK() {
			fmt.Fprintf(stderr, "imagebench bench: %d regression(s) vs %s\n", len(rep.Regressions()), *baseline)
			return 1
		}
	}
	return 0
}

// explicitSubset reports whether the selectors pick specific cases
// rather than the full default set: only a full run can meaningfully
// detect baseline cases that vanished from the benchmark surface.
func explicitSubset(selectors []string) bool {
	if len(selectors) == 0 {
		return false
	}
	for _, s := range selectors {
		if s == "all" {
			return false
		}
	}
	return true
}
