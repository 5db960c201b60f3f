// Command imagebench runs the paper-reproduction experiments: one per
// table and figure of "Comparative Evaluation of Big-Data Systems on
// Scientific Image Analytics Workloads" (VLDB 2017).
//
// Experiments are scheduled on the shared worker-pool runner (the same
// scheduler behind the imagebenchd daemon), so `imagebench all` runs
// them concurrently and prints results in deterministic order.
//
// Usage:
//
//	imagebench -list               # show all experiment IDs
//	imagebench engines             # show the registered engines + capabilities
//	imagebench fig10c fig11        # run specific experiments
//	imagebench -profile quick all  # run everything under the quick profile
//	imagebench -check fig12d       # also validate the paper's shape
//	imagebench -json fig11         # machine-readable output
//	imagebench -parallel 2 all     # cap the worker pool
//	imagebench -cache-dir /tmp/ib all  # reuse results across invocations
//	imagebench -systems Spark,Myria fig10c  # restrict rows to named engines
//	imagebench -trace trace.json fig11 # write a Chrome/Perfetto trace of the run
//
// Batch sweeps (experiments × profiles × overrides) run through the
// sweep engine, with a live grid summary and a combined JSON artifact:
//
//	imagebench sweep -profiles quick -nodes 4,8 -out sweep.json 'fig10*' fig11
//
// Federated sweeps partition the same grid across a set of imagebenchd
// workers, with work stealing, failover, and a crash-safe assignment
// journal; the combined artifact is byte-identical to a single-node run:
//
//	imagebench fedsweep -workers http://a:8080,http://b:8080 -out sweep.json 'fig10*'
//
// Measured performance is not a subcommand: the repo's one instrument
// is `go run ./benchmark` (see benchmark/README.md).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"imagebench/internal/core"
	"imagebench/internal/engine"
	"imagebench/internal/fsatomic"
	"imagebench/internal/obs"
	"imagebench/internal/results"
	"imagebench/internal/runner"
)

// parseSystems splits and validates a -systems flag value against the
// engine registry, so a typoed engine name fails before any simulation
// starts.
func parseSystems(flagValue string) ([]string, error) {
	if flagValue == "" {
		return nil, nil
	}
	var out []string
	for _, name := range strings.Split(flagValue, ",") {
		name = strings.TrimSpace(name)
		if _, err := engine.Lookup(name); err != nil {
			return nil, err
		}
		out = append(out, name)
	}
	return out, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "sweep" {
		sweepMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "fedsweep" {
		fedsweepMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "engines" {
		os.Exit(enginesMain(os.Args[2:]))
	}
	list := flag.Bool("list", false, "list experiment IDs and exit")
	profile := flag.String("profile", "full", `workload profile: "full" (paper sweeps) or "quick"`)
	check := flag.Bool("check", true, "validate each table against the paper's qualitative shape")
	asJSON := flag.Bool("json", false, "emit results as a JSON array instead of rendered tables")
	parallel := flag.Int("parallel", 0, "worker-pool size (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", "", "result-cache directory (empty = no cross-run caching)")
	systems := flag.String("systems", "", "comma-separated engine names to restrict experiments to (see `imagebench engines`; empty = all)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file of the run (load in Perfetto / chrome://tracing)")
	flag.Parse()

	if *list {
		for _, e := range core.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
			fmt.Printf("%-12s paper: %s\n", "", e.Paper)
		}
		return
	}

	p, err := core.ProfileByName(*profile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "imagebench: unknown profile %q\n", *profile)
		os.Exit(2)
	}
	filtered, err := parseSystems(*systems)
	if err != nil {
		fmt.Fprintln(os.Stderr, "imagebench:", err)
		os.Exit(2)
	}
	if filtered != nil {
		p = p.Apply(core.Overrides{Systems: filtered})
		if *check {
			// Shape checks compare specific systems against each other and
			// need the full row set; a filtered table cannot satisfy them.
			fmt.Fprintln(os.Stderr, "imagebench: -systems filters the comparison rows; shape checks disabled")
			*check = false
		}
	}

	ids := flag.Args()
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "imagebench: name experiments to run, or \"all\" (see -list)")
		os.Exit(2)
	}
	var exps []*core.Experiment
	if len(ids) == 1 && ids[0] == "all" {
		exps = core.All()
	} else {
		for _, id := range ids {
			e, err := core.Lookup(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, "imagebench:", err)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	var cache *results.Cache
	if *cacheDir != "" {
		cache, err = results.Open(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "imagebench:", err)
			os.Exit(1)
		}
	}

	// Submit everything up front so the pool runs experiments
	// concurrently, then collect in submission order: the output is
	// byte-identical in table content to the old serial path.
	opts := runner.Options{Workers: *parallel, Cache: cache}
	var tracer *obs.Tracer
	if *traceOut != "" {
		// Tracing records spans around the simulations (dual-clocked:
		// wall and virtual time); it never alters what they compute.
		tracer = obs.NewTracer()
		opts.Tracer = tracer
		opts.Metrics = obs.NewRegistry()
	}
	sched := runner.New(opts)
	defer sched.Close()
	jobs := make([]*runner.Job, len(exps))
	for i, e := range exps {
		j, err := sched.Submit(e.ID, p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "imagebench: submit %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		jobs[i] = j
	}

	// jsonResult is the machine-readable record emitted per experiment
	// under -json.
	type jsonResult struct {
		ID      string       `json:"id"`
		Title   string       `json:"title"`
		Profile string       `json:"profile"`
		Unit    string       `json:"unit"`
		Columns []string     `json:"columns"`
		Rows    []string     `json:"rows"`
		Cells   [][]*float64 `json:"cells"` // null = the paper's NA/X cells
		Notes   []string     `json:"notes,omitempty"`
		Shape   string       `json:"shape,omitempty"` // "ok" or the check failure
	}
	var jsonResults []jsonResult

	failed := 0
	for i, e := range exps {
		if !*asJSON {
			fmt.Printf("=== %s: %s (profile %s)\n", e.ID, e.Title, p.Name)
			fmt.Printf("    paper: %s\n", e.Paper)
		}
		tab, err := runner.Wait(context.Background(), jobs[i])
		if errors.Is(err, engine.ErrUnsupported) {
			// Not applicable under the -systems filter (e.g. a Myria
			// tuning study with -systems Spark): skipped, not failed.
			// The JSON stream keeps a record so machine consumers can
			// tell "skipped" from "vanished".
			if *asJSON {
				jsonResults = append(jsonResults, jsonResult{
					ID: e.ID, Title: e.Title, Profile: p.Name,
					Shape: fmt.Sprintf("skipped: %v", err),
				})
			} else {
				fmt.Printf("    skipped: %v\n\n", err)
			}
			continue
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "imagebench: %s failed: %v\n", e.ID, err)
			failed++
			continue
		}
		shape := ""
		if *check {
			if err := e.Check(tab); err != nil {
				shape = err.Error()
				failed++
			} else {
				shape = "ok"
			}
		}
		if *asJSON {
			jsonResults = append(jsonResults, jsonResult{
				ID: e.ID, Title: e.Title, Profile: p.Name, Unit: tab.Unit,
				Columns: tab.ColNames, Rows: tab.RowNames,
				Cells: tab.NullableCells(),
				Notes: tab.Notes, Shape: shape,
			})
			continue
		}
		fmt.Print(tab.Render())
		switch {
		case shape == "ok":
			fmt.Printf("    shape check: ok\n")
		case shape != "":
			fmt.Printf("    SHAPE CHECK FAILED: %v\n", shape)
		}
		info := jobs[i].Snapshot()
		if info.CacheHit {
			fmt.Printf("    (served from result cache, key %s)\n\n", info.ResultKey)
		} else {
			fmt.Printf("    (ran in %.1fs real time)\n\n", info.ElapsedSec)
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonResults); err != nil {
			fmt.Fprintln(os.Stderr, "imagebench:", err)
			os.Exit(1)
		}
	}
	if tracer != nil {
		if err := writeTrace(*traceOut, tracer); err != nil {
			fmt.Fprintln(os.Stderr, "imagebench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "imagebench: trace written to %s (%d spans)\n", *traceOut, len(tracer.Spans()))
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "imagebench: %d experiment(s) failed\n", failed)
		os.Exit(1)
	}
}

// writeTrace dumps the tracer's spans as Chrome trace-event JSON. The
// write is atomic: an interrupted run leaves the previous trace (or no
// file), never a truncated one.
func writeTrace(path string, tracer *obs.Tracer) error {
	f, err := fsatomic.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := tracer.WriteChromeTrace(f); err != nil {
		f.Abort()
		return fmt.Errorf("trace: encode: %w", err)
	}
	return f.Commit()
}
