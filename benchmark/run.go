package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// A run makes at least minSetups set-ups, so setup_s is a median and not
// one reading, and keeps making them until they have taken minSetupTime
// in total (at most maxSetups): a set-up of a millisecond needs many
// readings before its median is steady.
const (
	minSetups    = 3
	maxSetups    = 64
	minSetupTime = 0.25 // seconds
)

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run measured.
type report struct {
	Workload                            string
	Seed                                int64
	Seconds                             int
	Traced                              bool
	NProc                               int
	GOMAXPROCS                          int
	GoVersion                           string
	Commit                              string
	Par                                 int // min(nproc, GOMAXPROCS): what machine-tied sizes are set to
	Clients, Connections, RunnerWorkers int

	Rounds   []roundResult
	SetupsS  []float64
	WaitsMs  []float64 // sorted, untraced rounds only
	TailPct  int       // the percentile op_ms_p95 actually reports
	Failures []string

	Metrics  map[string]float64 // the metrics of the result line
	Units    map[string]string
	TraceOut string
	Summary  []nameSummary
}

func (r *report) attempted() (n int) {
	for _, x := range r.Rounds {
		n += x.Attempted
	}
	return n
}

func (r *report) failed() (n int) {
	for _, x := range r.Rounds {
		n += x.Failed
	}
	return n
}

// runWorkload runs w for o.seconds and returns what it measured. Every
// round gets a fresh set-up of the workload in its own scratch directory,
// so every round does the same work from the same state and setup_s has
// one sample per round. An error means the run could not measure at all
// (set-up failed); failed operations are counted, not returned.
func runWorkload(ctx context.Context, w workload, o options) (*report, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	rep := &report{
		Workload: w.spec.Name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace == 1,
		NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit(ctx, root),
		Par:     min(nproc, runtime.GOMAXPROCS(0)),
		Metrics: map[string]float64{}, Units: map[string]string{},
	}

	// All on-disk state lives under one directory, removed on exit.
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(o.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer func() {
		_ = os.RemoveAll(runDir)
		_ = os.Remove(o.workDir) // only if this run left it empty
	}()

	var tr *tracer
	var tracedCounters map[string]float64
	var pauseTraced float64
	if rep.Traced {
		tr = newTracer()
	}

	// one sets the workload up in a fresh directory and, if timed, runs
	// one round.
	one := func(n int, timed, traced bool) error {
		e := &env{seed: o.seed, par: rep.Par, dir: filepath.Join(runDir, fmt.Sprintf("round-%d", n)), root: root}
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			return err
		}
		defer os.RemoveAll(e.dir)
		var rootSpan spanRef
		if traced {
			e.tr = tr
			rootSpan = tr.start(spanRef{}, "round", "")
			e.parent = rootSpan
			defer rootSpan.end()
		}
		sp := e.tr.start(e.parent, "setup", "")
		t0 := time.Now()
		inst, err := w.setup(ctx, e)
		setupS := time.Since(t0).Seconds()
		sp.end()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		defer inst.close()
		rep.Clients, rep.Connections, rep.RunnerWorkers = inst.sizes()
		if m := max(rep.Clients, rep.Connections, rep.RunnerWorkers); m > nproc {
			return fmt.Errorf("clients=%d connections=%d runner_workers=%d: each must be at most nproc=%d",
				rep.Clients, rep.Connections, rep.RunnerWorkers, nproc)
		}
		rep.SetupsS = append(rep.SetupsS, setupS)
		if !timed {
			return nil
		}
		var smp *sampler
		var pause0 float64
		if traced {
			smp = startSampler()
			pause0 = gcPauseSeconds()
		}
		var r round
		res := timeRound(ctx, inst, &r)
		res.SetupS, res.Traced = setupS, traced
		rep.Rounds = append(rep.Rounds, res)
		if traced {
			smp.halt()
			pauseTraced += gcPauseSeconds() - pause0
			rep.Metrics["runtime.peak_heap_mb"] = max(rep.Metrics["runtime.peak_heap_mb"], float64(smp.peakHeapBytes)/1e6)
			rep.Metrics["runtime.goroutines_peak"] = max(rep.Metrics["runtime.goroutines_peak"], float64(smp.peakGoroutine))
			tracedCounters = map[string]float64{}
			inst.counters(ctx, tracedCounters)
		} else {
			rep.WaitsMs = append(rep.WaitsMs, r.waitsMs...)
		}
		for _, f := range r.failures {
			if len(rep.Failures) < 10 {
				rep.Failures = append(rep.Failures, f)
			}
		}
		return nil
	}

	// Rounds until the time is up; a traced run alternates untraced and
	// traced rounds and needs one of each, so its tracing overhead is
	// measured inside one process.
	start := time.Now()
	need := 1
	if rep.Traced {
		need = 2
	}
	n := 0
	for ; n < need || time.Since(start) < time.Duration(o.seconds)*time.Second; n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := one(n, true, rep.Traced && n%2 == 1); err != nil {
			return nil, err
		}
	}
	for ; !rep.Traced && moreSetups(rep.SetupsS); n++ {
		if err := one(n, false, false); err != nil {
			return nil, err
		}
	}

	if rep.Traced {
		rep.layerMetrics(tr, tracedCounters, pauseTraced)
		e := &env{seed: o.seed, par: rep.Par, dir: filepath.Join(runDir, "probes"), root: root, tr: tr}
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			return nil, err
		}
		if !o.skipProbes {
			e.parent = tr.start(spanRef{}, "probes", "")
			err := runProbes(ctx, e, rep.Metrics)
			e.parent.end()
			if err != nil {
				return nil, err
			}
		}
		for _, m := range perLayer {
			rep.Units[m.Name] = m.Unit
			if _, measured := rep.Metrics[m.Name]; !measured {
				rep.Metrics[m.Name] = 0 // a layer this workload does not exercise
			}
		}
		rep.TraceOut = o.traceOut
		if rep.TraceOut == "" {
			rep.TraceOut = filepath.Join("benchmark", "results", "trace-"+w.spec.Name+".json")
		}
		if err := os.MkdirAll(filepath.Dir(rep.TraceOut), 0o755); err != nil {
			return nil, err
		}
		if err := tr.write(rep.TraceOut, w.spec.Name); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		rep.Summary = summarize(tr.spans)
		return rep, nil
	}
	rep.endToEndMetrics()
	return rep, nil
}

func moreSetups(done []float64) bool {
	total := 0.0
	for _, s := range done {
		total += s
	}
	return len(done) < minSetups || (total < minSetupTime && len(done) < maxSetups)
}

// pick returns f of every round with the given tracedness.
func (r *report) pick(traced bool, f func(roundResult) float64) []float64 {
	var out []float64
	for _, x := range r.Rounds {
		if x.Traced == traced {
			out = append(out, f(x))
		}
	}
	return out
}

func opsPerS(x roundResult) float64 {
	if x.WallS <= 0 {
		return 0
	}
	return float64(x.Attempted-x.Failed) / x.WallS
}

// endToEndMetrics reduces the untraced rounds to the six end-to-end
// metrics: medians over rounds, percentiles over the pooled waits.
func (r *report) endToEndMetrics() {
	r.WaitsMs = sortedCopy(r.WaitsMs)
	r.TailPct = tailPercentile(len(r.WaitsMs), 95)
	v := map[string]float64{
		"setup_s":   median(r.SetupsS),
		"ops_per_s": median(r.pick(false, opsPerS)),
		"cpu_s":     median(r.pick(false, func(x roundResult) float64 { return x.CPUS })),
		"alloc_mb":  median(r.pick(false, func(x roundResult) float64 { return x.AllocMB })),
		"op_ms_p50": percentile(r.WaitsMs, 50),
		"op_ms_p95": percentile(r.WaitsMs, r.TailPct),
	}
	for _, m := range endToEnd {
		r.Metrics[m.Name] = v[m.Name]
		r.Units[m.Name] = m.Unit
	}
}

// layerMetrics fills the per-layer metrics that come from the traced
// rounds: the instance's counters, percentiles of harvested and client
// spans, the process sampler, and the tracing overhead.
func (r *report) layerMetrics(tr *tracer, counters map[string]float64, gcPauseS float64) {
	for k, v := range counters {
		r.Metrics[k] = v
	}
	p50 := func(name string) float64 { return percentile(sortedCopy(tr.durationsMs(name)), 50) }
	r.Metrics["runner.queue_wait_ms_p50"] = p50("queued")
	r.Metrics["runner.execute_ms_p50"] = p50("execute")
	r.Metrics["runner.cache_write_ms_p50"] = p50("cache-write")
	for _, c := range requestClasses {
		d := sortedCopy(tr.durationsMs("http." + c))
		r.Metrics["daemon."+c+"_ms_p50"] = percentile(d, 50)
		r.Metrics["daemon."+c+"_ms_p95"] = percentile(d, tailPercentile(len(d), 95))
	}
	r.Metrics["runtime.gc_pause_ms"] = gcPauseS * 1e3
	if plain, traced := median(r.pick(false, opsPerS)), median(r.pick(true, opsPerS)); traced > 0 {
		r.Metrics["trace.overhead_pct"] = (plain/traced - 1) * 100
	}
}

// commit names the checkout's commit, or "unknown" outside a git
// repository (the driver's checkouts are not repositories).
func commit(ctx context.Context, root string) string {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// print writes the report: a header recording the machine and the sizes
// tied to it, every metric by name with its unit, and last the one-line
// JSON result.
func (r *report) print(w io.Writer) error {
	fmt.Fprintf(w, "benchmark workload=%s seed=%d seconds=%d trace=%v nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.NProc, r.GOMAXPROCS, r.GoVersion, r.Commit)
	fmt.Fprintf(w, "sizes clients=%d connections=%d runner_workers=%d (each at most nproc=%d)\n", r.Clients, r.Connections, r.RunnerWorkers, r.NProc)
	fmt.Fprintf(w, "rounds=%d setups=%d ops_attempted=%d ops_failed=%d\n", len(r.Rounds), len(r.SetupsS), r.attempted(), r.failed())
	for i, x := range r.Rounds {
		fmt.Fprintf(w, "round %d traced=%v setup_s=%.4f wall_s=%.4f cpu_s=%.4f alloc_mb=%.2f ops=%d failed=%d\n",
			i, x.Traced, x.SetupS, x.WallS, x.CPUS, x.AllocMB, x.Attempted, x.Failed)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "failure %s\n", f)
	}
	names := make([]string, 0, len(r.Metrics))
	if r.Traced {
		for _, m := range perLayer {
			names = append(names, m.Name)
		}
	} else {
		for _, m := range endToEnd {
			names = append(names, m.Name)
		}
	}
	out := make(map[string]metricValue, len(names))
	for _, n := range names {
		note := ""
		switch n {
		case "op_ms_p50":
			note = fmt.Sprintf("  (%d samples)", len(r.WaitsMs))
		case "op_ms_p95":
			note = fmt.Sprintf("  (p%d of %d samples)", r.TailPct, len(r.WaitsMs))
		}
		fmt.Fprintf(w, "metric %-32s %v %s%s\n", n, r.Metrics[n], r.Units[n], note)
		out[n] = metricValue{r.Metrics[n], r.Units[n]}
	}
	if r.Traced {
		fmt.Fprintf(w, "spans written to %s; most self time:\n", r.TraceOut)
		for i, s := range r.Summary {
			if i == 8 {
				break
			}
			fmt.Fprintf(w, "  %-28s %-7s n=%-6d total=%.1fms self=%.1fms\n", s.Name, s.Source, s.Count, s.TotalMs, s.SelfMs)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed() == 0, r.attempted(), r.failed(), out})
	if err != nil {
		// Only a NaN or infinite metric can do this.
		return fmt.Errorf("result line not encodable: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
