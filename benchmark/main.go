// Command benchmark is the repository's measuring instrument: four
// workloads, six end-to-end metrics and a per-layer ladder, defined by the
// table in spec.go and described in README.md.
//
//	go run ./benchmark --workload figures --seed 1 --seconds 15 --trace 0
//
// runs one workload once in this process and prints every metric by name
// with its unit; the last line of standard output is one JSON object
// (correct, attempted, failed, metrics). --trace 1 prints the per-layer
// metrics instead of the end-to-end ones. -baseline records a baseline
// from fresh processes of itself; -spec and -tables print BENCHMARK.json
// and the README's tables from the same table.
//
// The benchmark imports the layers it measures and times calls into their
// public functions from outside. It does not import internal/bench or
// internal/loadgen, so those can change without changing the instrument.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	traceOut string
	workDir  string

	// skipProbes leaves the layer probes out of a traced run; only the
	// tests set it (the probes take seconds, the tests have milliseconds).
	skipProbes bool

	spec, tables, baseline bool
	out                    string
	sets, runs             int
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := realMain(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: figures, sweep-astro, serve-hot or fed-tiny")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	fs.IntVar(&o.seconds, "seconds", runSeconds, "how long to keep starting rounds; the round in progress always finishes")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: print the per-layer metrics and write the spans")
	fs.StringVar(&o.traceOut, "trace-out", "", "where a traced run writes its spans (default benchmark/results/trace-<workload>.json)")
	fs.StringVar(&o.workDir, "workdir", ".bench_work", "directory scratch state is created under and removed from")
	fs.BoolVar(&o.spec, "spec", false, "print BENCHMARK.json and exit")
	fs.BoolVar(&o.tables, "tables", false, "print the README's generated tables and exit")
	fs.BoolVar(&o.baseline, "baseline", false, "record a baseline: -sets sets of -runs fresh-process runs per workload plus one traced run, written to -out")
	fs.StringVar(&o.out, "out", filepath.Join("benchmark", "results", "baseline.json"), "where -baseline writes")
	fs.IntVar(&o.sets, "sets", 2, "sets of runs per workload for -baseline")
	fs.IntVar(&o.runs, "runs", 3, "runs per set for -baseline")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := lintSpec(); err != nil {
		fmt.Fprintln(stderr, "benchmark: the metric table is invalid:", err)
		return 2
	}
	switch {
	case o.spec:
		b, err := benchmarkJSON()
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		_, _ = stdout.Write(b) // nothing to do about a closed stdout
		return 0
	case o.tables:
		_, _ = io.WriteString(stdout, readmeTables())
		return 0
	case o.baseline:
		if err := recordBaseline(ctx, o, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	w, ok := lookupWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have", o.workload)
		for _, s := range workloads {
			fmt.Fprintf(stderr, " %s", s.Name)
		}
		fmt.Fprintln(stderr, ")")
		return 2
	}
	rep, err := runWorkload(ctx, w, o)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// setups binds each workload name to its set-up; a test checks it covers
// the spec table exactly.
var setups = map[string]func(context.Context, *env) (instance, error){
	"figures":     setupFigures,
	"sweep-astro": setupSweepAstro,
	"serve-hot":   setupServeHot,
	"fed-tiny":    setupFedTiny,
}

func lookupWorkload(name string) (workload, bool) {
	for i := range workloads {
		if workloads[i].Name == name {
			return workload{spec: &workloads[i], setup: setups[name]}, true
		}
	}
	return workload{}, false
}

// repoRoot locates the checkout this program was built from: its own
// source file sits in <root>/benchmark. core's table1 experiment finds
// its sources the same way.
func repoRoot() (string, error) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("cannot locate the source tree")
	}
	root := filepath.Dir(filepath.Dir(file))
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return "", fmt.Errorf("source tree not available: %w", err)
	}
	return root, nil
}
