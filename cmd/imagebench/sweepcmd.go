package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"imagebench/internal/cluster"
	"imagebench/internal/core"
	"imagebench/internal/fsatomic"
	"imagebench/internal/results"
	"imagebench/internal/runner"
	"imagebench/internal/sweep"
)

// sweepMain implements `imagebench sweep`: expand a parameter grid,
// run it on the worker pool, print a live grid summary, and optionally
// write one combined JSON artifact with every cell's table.
func sweepMain(args []string) {
	fs := flag.NewFlagSet("imagebench sweep", flag.ExitOnError)
	profiles := fs.String("profiles", "quick", "comma-separated profile names to sweep over")
	nodes := fs.String("nodes", "", "comma-separated cluster sizes; each becomes one grid axis point (e.g. 4,8,16)")
	killAt := fs.String("kill-at", "", "comma-separated fault points \"node@time\" for the ft* experiments; each becomes one grid axis point\n"+
		"sweeping baseline vs that kill (time is a % of each system's fault-free makespan, or a duration;\n"+
		"join simultaneous kills with '+', e.g. \"1@30%,1@30%+2@55%,2@10s\")")
	systemsAxis := fs.String("systems", "", "comma-separated engine names; each becomes one grid axis point restricting\n"+
		"experiments to that engine (join engines within one point with '+', e.g. \"Spark,Myria,Spark+Myria\");\n"+
		"cells whose experiment has no allowed engine show as n/a, not errors")
	parallel := fs.Int("parallel", 0, "worker-pool size (0 = GOMAXPROCS)")
	cacheDir := fs.String("cache-dir", "", "result-cache directory (empty = no cross-run caching)")
	out := fs.String("out", "", "write the combined sweep artifact (JSON) to this file, streamed cell by cell")
	interval := fs.Duration("interval", 500*time.Millisecond, "live grid refresh interval")
	quiet := fs.Bool("quiet", false, "suppress the live grid; print only the final summary")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: imagebench sweep [flags] <experiment-id-or-glob>...\n\n"+
			"Runs every experiment × profile × override combination as one batch,\n"+
			"deduplicated and cached. Examples:\n\n"+
			"  imagebench sweep -profiles quick -nodes 4,8 -out sweep.json 'fig10*' fig11\n"+
			"  imagebench sweep -kill-at \"1@30%%,1@30%%+2@55%%\" -out faults.json 'ft*'\n"+
			"  imagebench sweep -systems Spark,Myria,Dask -out engines.json fig10c fig12a\n\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() == 0 {
		fs.Usage()
		os.Exit(2)
	}

	spec := gridSpec("imagebench sweep", fs.Args(), *profiles, *nodes)
	if *killAt != "" {
		for _, field := range strings.Split(*killAt, ",") {
			scenario, err := killScenario(strings.TrimSpace(field))
			if err != nil {
				fmt.Fprintf(os.Stderr, "imagebench sweep: bad -kill-at value %q: %v\n", field, err)
				os.Exit(2)
			}
			// Each kill point is one axis point comparing the fault-free
			// baseline against that scenario.
			spec.Overrides = append(spec.Overrides, core.Overrides{Failures: []string{"baseline", scenario}})
		}
	}
	if *systemsAxis != "" {
		for _, field := range strings.Split(*systemsAxis, ",") {
			var names []string
			for _, name := range strings.Split(strings.TrimSpace(field), "+") {
				names = append(names, strings.TrimSpace(name))
			}
			// Validation happens in Overrides.Validate at submit time; an
			// unknown engine name fails the whole sweep up front.
			spec.Overrides = append(spec.Overrides, core.Overrides{Systems: names})
		}
	}

	var cache *results.Cache
	var err error
	if *cacheDir != "" {
		if cache, err = results.Open(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "imagebench sweep:", err)
			os.Exit(1)
		}
	}
	sched := runner.New(runner.Options{Workers: *parallel, Cache: cache})
	defer sched.Close()
	mgr, err := sweep.NewManager(sched, "", time.Now)
	if err != nil {
		fmt.Fprintln(os.Stderr, "imagebench sweep:", err)
		os.Exit(1)
	}
	s, _, err := mgr.Submit(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "imagebench sweep:", err)
		os.Exit(1)
	}
	fmt.Printf("sweep %s: %d cells\n", s.ID, len(s.Cells))
	reportShared(s)

	// The artifact streams while the sweep runs: each cell is appended
	// (and its retained table released) the moment it finishes, so the
	// process holds O(workers) tables no matter how many cells the grid
	// has. The bytes land in a temp file and rename into place on
	// Commit, so a crash mid-sweep never leaves a torn artifact.
	var artFile *fsatomic.File
	artDone := make(chan error, 1)
	if *out != "" {
		artFile, err = fsatomic.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "imagebench sweep:", err)
			os.Exit(1)
		}
		defer artFile.Abort()
		go func() {
			bw := bufio.NewWriter(artFile)
			_, err := s.StreamArtifact(context.Background(), bw, cache)
			if err == nil {
				err = bw.Flush()
			}
			artDone <- err
		}()
	}

	if *quiet {
		// No grid wanted: block on completion instead of polling.
		if err := s.Wait(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "imagebench sweep:", err)
			os.Exit(1)
		}
	} else {
		// Live grid: re-render whenever the picture changes until every
		// cell is terminal. Each refresh prints a fresh grid (no ANSI
		// tricks), so the output also reads sensibly when piped to a file.
		last := ""
		for {
			info := s.Info(true)
			if g := renderGrid(s, info); g != last {
				fmt.Printf("%s%d/%d done, %d running, %d queued, %d failed, %d n/a\n\n",
					g, info.Done, info.Total, info.Running, info.Queued, info.Failed, info.Unsupported)
				last = g
			}
			if info.Finished() {
				break
			}
			time.Sleep(*interval)
		}
	}
	final := s.Info(true)
	if *quiet {
		fmt.Print(renderGrid(s, final))
	}
	fmt.Printf("sweep %s finished: %d ok (%d from cache), %d failed, %d n/a\n",
		s.ID, final.Done, final.Hits, final.Failed, final.Unsupported)

	if *out != "" {
		if err := <-artDone; err != nil {
			fmt.Fprintln(os.Stderr, "imagebench sweep:", err)
			os.Exit(1)
		}
		if err := artFile.Commit(); err != nil {
			fmt.Fprintln(os.Stderr, "imagebench sweep:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if final.Failed > 0 {
		for _, c := range final.Cells {
			if c.Status == runner.StatusFailed && !c.Unsupported {
				fmt.Fprintf(os.Stderr, "imagebench sweep: %s/%s failed: %s\n", c.Experiment, c.Profile, c.Error)
			}
		}
		os.Exit(1)
	}
}

// reportShared says on stderr which experiments' cells share runs:
// those that differ only in axes the experiment ignores.
func reportShared(s *sweep.Sweep) {
	for i := 0; i < len(s.Cells); { // cells are sorted by experiment
		e, _ := core.Lookup(s.Cells[i].Experiment) // expanded from the registry
		runs, n := map[string]bool{}, 0
		for ; i < len(s.Cells) && s.Cells[i].Experiment == e.ID; i, n = i+1, n+1 {
			runs[e.Canonical(s.Cells[i].Profile).Name] = true
		}
		if share := "one run"; len(runs) < n {
			if len(runs) > 1 {
				share = fmt.Sprintf("%d runs", len(runs))
			}
			fmt.Fprintf(os.Stderr, "%s ignores %s: its %d cells share %s\n", e.ID, e.Ignores, n, share)
		}
	}
}

// gridSpec builds the Spec both sweep commands start from: the
// experiments, one profile per -profiles name and one ClusterNodes
// override per -nodes size. A bad size exits with status 2.
func gridSpec(cmd string, experiments []string, profiles, nodes string) sweep.Spec {
	spec := sweep.Spec{Experiments: experiments}
	for _, name := range strings.Split(profiles, ",") {
		spec.Profiles = append(spec.Profiles, strings.TrimSpace(name))
	}
	if nodes != "" {
		for _, field := range strings.Split(nodes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(field))
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: bad -nodes value %q\n", cmd, field)
				os.Exit(2)
			}
			spec.Overrides = append(spec.Overrides, core.Overrides{ClusterNodes: []int{n}})
		}
	}
	return spec
}

// killScenario turns a -kill-at point ("1@30%" or "1@30%+2@55%") into a
// canonical fault-scenario string ("kill:1@30%+kill:2@55%") and
// validates it through the cluster parser.
func killScenario(field string) (string, error) {
	parts := strings.Split(field, "+")
	for i, p := range parts {
		parts[i] = "kill:" + strings.TrimSpace(p)
	}
	scenario := strings.Join(parts, "+")
	if _, err := cluster.ParseScenario(scenario); err != nil {
		return "", err
	}
	return scenario, nil
}

// renderGrid draws the experiment × profile grid with one status mark
// per cell: "." queued, ">" running, "ok" done, "hit" done-from-cache,
// "ERR" failed, "n/a" not applicable under the cell's engine filter,
// "-" not part of the grid.
func renderGrid(s *sweep.Sweep, info sweep.Info) string {
	marks := make(map[string]string, len(info.Cells))
	for _, ci := range info.Cells {
		marks[ci.Experiment+"\x00"+ci.Profile] = cellMark(ci)
	}
	rows, cols := s.GridLabels()
	w := 12
	for _, r := range rows {
		if len(r)+2 > w {
			w = len(r) + 2
		}
	}
	cw := 5
	for _, c := range cols {
		if len(c)+2 > cw {
			cw = len(c) + 2
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s", w, "")
	for _, c := range cols {
		fmt.Fprintf(&b, "%*s", cw, c)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s", w, r)
		for _, cn := range cols {
			mark, ok := marks[r+"\x00"+cn]
			if !ok {
				mark = "-"
			}
			fmt.Fprintf(&b, "%*s", cw, mark)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func cellMark(ci sweep.CellInfo) string {
	switch ci.Status {
	case runner.StatusDone:
		if ci.CacheHit {
			return "hit"
		}
		return "ok"
	case runner.StatusFailed:
		if ci.Unsupported {
			return "n/a"
		}
		return "ERR"
	case runner.StatusRunning:
		return ">"
	default:
		return "."
	}
}
