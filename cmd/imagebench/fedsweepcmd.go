package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/daemon"
	"imagebench/internal/fed"
	"imagebench/internal/fsatomic"
	"imagebench/internal/obs"
	"imagebench/internal/sweep"
)

// fedsweepMain implements `imagebench fedsweep`: expand a parameter
// grid and run it federated across a set of imagebenchd workers, with
// work stealing, failover, a crash-safe assignment journal, and a
// combined artifact byte-identical to a single-node run.
func fedsweepMain(args []string) {
	fs := flag.NewFlagSet("imagebench fedsweep", flag.ExitOnError)
	workersFlag := fs.String("workers", "", "comma-separated base URLs of the imagebenchd workers (required),\ne.g. http://a:8080,http://b:8080")
	perWorker := fs.Int("per-worker", 0, "concurrent cells in flight per worker (0 = 2)")
	journal := fs.String("journal", "", "assignment-journal path; a restarted coordinator with the same journal\nand spec resubmits only unfinished cells")
	out := fs.String("out", "", "write the combined sweep artifact (JSON) to this file")
	serve := fs.String("serve", "", "also serve the coordinator's observation API (GET /v1/sweeps/{id},\n/metrics, /healthz) on this address, e.g. :8090")
	profiles := fs.String("profiles", "quick", "comma-separated profile names to sweep over")
	nodes := fs.String("nodes", "", "comma-separated cluster sizes; each becomes one grid axis point (e.g. 4,8,16)")
	interval := fs.Duration("interval", time.Second, "progress-line refresh interval")
	quiet := fs.Bool("quiet", false, "suppress progress lines; print only the final summary")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: imagebench fedsweep -workers <url,...> [flags] <experiment-id-or-glob>...\n\n"+
			"Partitions the sweep grid across the workers, steals work back from\n"+
			"stragglers, reassigns cells when a worker dies, and replicates every\n"+
			"finished cell to every worker. Examples:\n\n"+
			"  imagebench fedsweep -workers http://a:8080,http://b:8080 -nodes 4,8 -out sweep.json 'fig10*'\n"+
			"  imagebench fedsweep -workers http://a:8080 -journal fed.jsonl -serve :8090 all\n\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() == 0 || *workersFlag == "" {
		fs.Usage()
		os.Exit(2)
	}

	spec := sweep.Spec{Experiments: fs.Args()}
	for _, name := range strings.Split(*profiles, ",") {
		spec.Profiles = append(spec.Profiles, strings.TrimSpace(name))
	}
	if *nodes != "" {
		for _, field := range strings.Split(*nodes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(field))
			if err != nil {
				fmt.Fprintf(os.Stderr, "imagebench fedsweep: bad -nodes value %q\n", field)
				os.Exit(2)
			}
			spec.Overrides = append(spec.Overrides, core.Overrides{ClusterNodes: []int{n}})
		}
	}

	reg := obs.NewRegistry()
	coord, err := fed.New(fed.Config{
		Workers:     splitList(*workersFlag),
		PerWorker:   *perWorker,
		JournalPath: *journal,
		Metrics:     obs.NewFedMetrics(reg),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "imagebench fedsweep:", err)
		os.Exit(2)
	}
	defer coord.Close()

	if *serve != "" {
		srv := daemon.NewHTTPServer(*serve, coord.Handler(reg), daemon.DefaultTimeouts())
		go func() {
			if err := srv.ListenAndServe(); err != nil {
				fmt.Fprintln(os.Stderr, "imagebench fedsweep: serve:", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("coordinator API on %s\n", *serve)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	progressDone := make(chan struct{})
	if !*quiet {
		go func() {
			defer close(progressDone)
			last := ""
			for {
				info, ok := coord.SweepInfo(false)
				if ok {
					line := fmt.Sprintf("%d/%d done (%d cached), %d running, %d queued, %d failed, %d n/a",
						info.Done, info.Total, info.Hits, info.Running, info.Queued, info.Failed, info.Unsupported)
					if line != last {
						fmt.Println(line)
						last = line
					}
					if info.Finished() {
						return
					}
				}
				select {
				case <-ctx.Done():
					return
				case <-time.After(*interval):
				}
			}
		}()
	} else {
		close(progressDone)
	}

	res, err := coord.Run(ctx, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "imagebench fedsweep:", err)
		os.Exit(1)
	}
	<-progressDone

	info, _ := coord.SweepInfo(false)
	fmt.Printf("sweep %s finished: %d ok (%d resumed from journal), %d failed, %d n/a\n",
		res.SweepID, len(res.Entries), info.Hits, len(res.Failed), len(res.Unsupported))

	if *out != "" {
		artFile, err := fsatomic.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "imagebench fedsweep:", err)
			os.Exit(1)
		}
		defer artFile.Abort()
		bw := bufio.NewWriter(artFile)
		err = res.WriteArtifact(bw)
		if err == nil {
			err = bw.Flush()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "imagebench fedsweep:", err)
			os.Exit(1)
		}
		if err := artFile.Commit(); err != nil {
			fmt.Fprintln(os.Stderr, "imagebench fedsweep:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if len(res.Failed) > 0 {
		for key, msg := range res.Failed {
			fmt.Fprintf(os.Stderr, "imagebench fedsweep: cell %.12s failed: %s\n", key, msg)
		}
		os.Exit(1)
	}
}

// splitList splits a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
