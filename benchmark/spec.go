package main

import (
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
)

// This file is the one table the benchmark is defined by. BENCHMARK.json
// (-spec), the README tables (-tables), the name lint, and the set of
// metrics every run prints are all derived from it, so they cannot drift.

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
// A run repeats its workload's round — a fixed amount of work — until
// this much time has passed, and always finishes the round it is in.
const runSeconds = 15

// command is how the driver starts one run, from the root of a checkout.
var command = []string{"go", "run", "./benchmark"}

// workloadSpec describes one workload. Size is frozen: changing it makes
// every number incomparable with the committed baseline.
type workloadSpec struct {
	Name string
	Why  string // one line, at most 200 characters
	Op   string // what one counted operation is
	Size string // the fixed work of one round
}

var workloads = []workloadSpec{
	{
		Name: "figures",
		Why:  "What a researcher runs (imagebench -profile quick all): 85% real NLMeans, so kernel, parallelism and memo work shows here and service work must not.",
		Op:   "one registered experiment: core.Lookup, RunContext under core.Quick(), Check, table JSON byte-equal to its golden",
		Size: "every registered experiment except fig12c, registry order, one caller; one round is one pass (25 ops)",
	},
	{
		Name: "sweep-astro",
		Why:  "The batch path with crash-safety on (queue, disk cache Put with fsync, journal, artifact encode) around the 2-D astro kernels; NLMeans does nothing here.",
		Op:   "one sweep cell through daemon.New{Workers: nproc, CacheDir, Journal, SweepDir}: Sweeps.Submit, StreamArtifact",
		Size: "10 astro/ablation experiments x 7 clusterNodes pairs summing to 17, in seeded order = 70 cells per round; every experiment byte-checked at the pair (5,12)",
	},
	{
		Name: "serve-hot",
		Why:  "Pure read path: HTTP handling, cache-hit submit, memory Get, response encode; no execution and no fsync. Same runner and results layers as sweep-astro, used the opposite way.",
		Op:   "one HTTP request over loopback, closed loop",
		Size: "nproc clients x 25000 requests per round, Zipf s=1.2 over 64 pre-warmed keys, mix 4/3/2/1 submit/result/jobpoll/sweeppoll; 2% of bodies checked",
	},
	{
		Name: "fed-tiny",
		Why:  "Cells take under 1 ms, so coordinator round trips, worker submit-wait, replication, three journals and fsync dominate: the only place federation and journal work can show.",
		Op:   "one federated cell: fed.Coordinator with a journal over nproc one-worker daemons with disk cache and journal",
		Size: "6 sub-millisecond experiments x 150 seeded clusterNodes points = 900 cells per round; artifact bytes equal the single-node canonical artifact",
	},
}

// e2eMetric is one end-to-end metric. Every workload reports every one of
// them; Bound is the share of the parent's median it may worsen by.
type e2eMetric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Def    string
}

// The timing bounds are the contract's maximum, not the 10-15% the issue
// asked for: on the two-core sandbox this was defined on, identical runs
// of identical code swing 15-30% as the shared host changes speed (see
// README, Steadiness). Allocation does not depend on the host.
var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25, "everything before a round's timed section: temp dirs, input and spec generation, daemon/worker boot, cache pre-warm, reference results for verification; median over the run's set-ups (at least 3)"},
	{"ops_per_s", "op/s", "higher", 0.25, "verified ops / wall of the round, median over rounds; a failed op costs its time and earns nothing"},
	{"cpu_s", "s", "lower", 0.25, "process user+system CPU (getrusage) over one round, median over rounds: separates faster-because-parallel from faster-because-less-work"},
	{"alloc_mb", "MB", "lower", 0.05, "runtime.MemStats.TotalAlloc delta over one round, median over rounds"},
	{"op_ms_p50", "ms", "lower", 0.25, "median caller-observed wait: per HTTP request on serve-hot; on the batch workloads the caller waits for the batch, so per pass (figures) and per grid from submit to artifact written (sweep-astro, fed-tiny)"},
	{"op_ms_p95", "ms", "lower", 0.25, "same waits at the highest percentile, at most 95, that still has 10 samples beyond it; the median when no percentile has; the percentile used and the sample count are printed beside it"},
}

// layerMetric is one per-layer metric of the traced run. Moves is the
// prediction written down before anything is optimised: which end-to-end
// metric on which workload the number should move; everywhere else the
// prediction is no change.
type layerMetric struct {
	Name   string
	Unit   string
	Better string
	Layer  string
	By     string // probe | spans | harvest | counter | sampler
	Moves  string
}

// probeEngines and astroEngines name the per-engine probe metrics; the
// run derives the same names from the engine registry and a test holds
// the two together.
var (
	neuroEngineMetrics = []string{"neuro.engine_run_ms.Dask", "neuro.engine_run_ms.Myria", "neuro.engine_run_ms.SciDB", "neuro.engine_run_ms.Spark", "neuro.engine_run_ms.TensorFlow"}
	astroEngineMetrics = []string{"astro.engine_run_ms.Myria", "astro.engine_run_ms.Spark"}
	expSpanIDs         = []string{"fig10c", "fig10e", "fig10g", "fig13", "ftneuro", "sec533", "fig10h"}
	requestClasses     = []string{"submit", "result", "jobpoll", "sweeppoll"}
)

var perLayer = buildPerLayer()

func buildPerLayer() []layerMetric {
	const (
		fig   = "figures.ops_per_s"
		figC  = "figures.ops_per_s, figures.cpu_s only if work (not just parallelism) drops"
		sweep = "sweep-astro.ops_per_s, sweep-astro.alloc_mb; not figures beyond 3%"
		none  = "predicted <1% of anything: recorded so 'the simulator is not the bottleneck' is a measurement"
		serve = "serve-hot.op_ms_p50, serve-hot.op_ms_p95, serve-hot.ops_per_s"
		write = "fed-tiny.ops_per_s first, sweep-astro.ops_per_s second"
		fedT  = "fed-tiny.ops_per_s"
		info  = "informational"
	)
	m := []layerMetric{
		{"imaging.nlmeans3_small_ms", "ms", "lower", "imaging (3-D)", "probe", figC},
		{"imaging.nlmeans3_large_ms", "ms", "lower", "imaging (3-D)", "probe", figC},
		{"imaging.nlmeans3_seq_ms", "ms", "lower", "imaging (3-D)", "probe", figC},
		{"imaging.nlmeans3_par_speedup", "x", "higher", "imaging (3-D)", "probe", fig},
		{"imaging.sepconv3_ms", "ms", "lower", "imaging (3-D)", "probe", figC},
		{"imaging.median3_ms", "ms", "lower", "imaging (3-D)", "probe", figC},
		{"dmri.fitfa_ms", "ms", "lower", "imaging (3-D)", "probe", figC},

		{"imaging.nlmeans3_stream_ms", "ms", "lower", "volume", "probe", "figures.ops_per_s once batch kernels become Collect of the stream; figures.alloc_mb"},
		{"volume.map_overhead_pct", "%", "lower", "volume", "probe", "figures.ops_per_s once batch kernels become Collect of the stream"},
		{"volume.arena_hit_ratio", "ratio", "higher", "volume", "counter", "figures.alloc_mb"},

		{"imaging.cosmicray_ms", "ms", "lower", "imaging (2-D), fits, synth", "probe", sweep},
		{"imaging.background_ms", "ms", "lower", "imaging (2-D), fits, synth", "probe", sweep},
		{"imaging.detect_ms", "ms", "lower", "imaging (2-D), fits, synth", "probe", sweep},
		{"fits.codec_ms", "ms", "lower", "imaging (2-D), fits, synth", "probe", sweep},
		{"synth.gen_astro_ms", "ms", "lower", "imaging (2-D), fits, synth", "probe", sweep},
		{"synth.gen_neuro_ms", "ms", "lower", "imaging (2-D), fits, synth", "probe", "figures.ops_per_s"},

		{"neuro.kernels_only_ms", "ms", "lower", "neuro, astro, engine", "probe", figC},
	}
	for _, n := range neuroEngineMetrics {
		m = append(m, layerMetric{n, "ms", "lower", "neuro, astro, engine", "probe", figC})
	}
	for _, n := range astroEngineMetrics {
		m = append(m, layerMetric{n, "ms", "lower", "neuro, astro, engine", "probe", "sweep-astro.ops_per_s, figures.ops_per_s"})
	}
	m = append(m,
		layerMetric{"astro.reference_ms", "ms", "lower", "neuro, astro, engine", "probe", "sweep-astro.ops_per_s"},
		layerMetric{"neuro.redundant_kernel_x", "x", "lower", "neuro, astro, engine", "probe", "figures.ops_per_s, figures.cpu_s: about 5 today, about 1 under a content-keyed kernel memo"},

		layerMetric{"cluster.submit_ns", "ns", "lower", "cluster, vtime", "probe", none},
		layerMetric{"vtime.reserve_ns", "ns", "lower", "cluster, vtime", "probe", none},
	)
	for _, id := range expSpanIDs {
		moves := fig
		if id == "fig10h" {
			moves = "sweep-astro.ops_per_s, figures.ops_per_s"
		}
		m = append(m, layerMetric{"core.exp_ms." + id, "ms", "lower", "core", "spans", moves})
	}
	m = append(m,
		layerMetric{"core.table_encode_us", "us", "lower", "core", "probe", "serve-hot.op_ms_p50, fed-tiny.ops_per_s"},
		layerMetric{"core.table_decode_us", "us", "lower", "core", "probe", "fed-tiny.ops_per_s"},
		layerMetric{"core.virtual_s_total", "s", "lower", "core", "counter", "exact: identical across commits unless goldens change"},

		layerMetric{"runner.queue_wait_ms_p50", "ms", "lower", "runner", "harvest", "sweep-astro.ops_per_s, fed-tiny.ops_per_s"},
		layerMetric{"runner.execute_ms_p50", "ms", "lower", "runner", "harvest", "sweep-astro.ops_per_s"},
		layerMetric{"runner.cache_write_ms_p50", "ms", "lower", "runner", "harvest", write},
		layerMetric{"runner.submit_hit_us", "us", "lower", "runner", "probe", "serve-hot.op_ms_p50"},
		layerMetric{"runner.reuse_ratio", "ratio", "higher", "runner", "counter", "must be 1.0 in serve-hot's timed section, 0 in sweep-astro and fed-tiny"},
		layerMetric{"runner.journal_record_us", "us", "lower", "runner", "probe", write},

		layerMetric{"results.get_mem_ns", "ns", "lower", "results, jsonl, fsatomic", "probe", serve},
		layerMetric{"results.get_disk_us", "us", "lower", "results, jsonl, fsatomic", "probe", "informational: a restarted daemon's first reads"},
		layerMetric{"results.put_mem_us", "us", "lower", "results, jsonl, fsatomic", "probe", write},
		layerMetric{"results.put_disk_us", "us", "lower", "results, jsonl, fsatomic", "probe", write},
		layerMetric{"results.hit_ratio", "ratio", "higher", "results, jsonl, fsatomic", "counter", "serve-hot.ops_per_s"},
		layerMetric{"jsonl.append_us", "us", "lower", "results, jsonl, fsatomic", "probe", write},
		layerMetric{"fsatomic.writefile_us", "us", "lower", "results, jsonl, fsatomic", "probe", write},

		layerMetric{"sweep.expand_us_per_cell", "us", "lower", "sweep", "probe", "fed-tiny.ops_per_s, sweep-astro.ops_per_s"},
		layerMetric{"sweep.submit_ms", "ms", "lower", "sweep", "probe", "fed-tiny.ops_per_s, sweep-astro.ops_per_s"},
		layerMetric{"sweep.artifact_us_per_cell", "us", "lower", "sweep", "probe", "fed-tiny.ops_per_s, sweep-astro.ops_per_s"},
	)
	for _, c := range requestClasses {
		m = append(m,
			layerMetric{"daemon." + c + "_ms_p50", "ms", "lower", "daemon", "spans", serve},
			layerMetric{"daemon." + c + "_ms_p95", "ms", "lower", "daemon", "spans", serve},
		)
	}
	m = append(m,
		layerMetric{"daemon.handler_us.submit", "us", "lower", "daemon", "probe", serve},
		layerMetric{"daemon.handler_us.result", "us", "lower", "daemon", "probe", serve},
		layerMetric{"daemon.net_us", "us", "lower", "daemon", "probe", serve},
		layerMetric{"daemon.metrics_scrape_ms", "ms", "lower", "daemon", "probe", info},
		layerMetric{"daemon.http_5xx", "count", "lower", "daemon", "counter", "must stay 0"},
		layerMetric{"daemon.resp_write_errors", "count", "lower", "daemon", "counter", "must stay 0"},

		layerMetric{"fed.overhead_x", "x", "lower", "fed", "spans", fedT},
		layerMetric{"fed.stolen_cells", "count", "lower", "fed", "counter", fedT},
		layerMetric{"fed.replications", "count", "lower", "fed", "counter", fedT},
		layerMetric{"fed.worker_failures", "count", "lower", "fed", "counter", "must stay 0"},
		layerMetric{"fed.max_worker_share", "ratio", "lower", "fed", "counter", fedT},
		layerMetric{"fed.journal_record_us", "us", "lower", "fed", "probe", fedT},
		layerMetric{"fed.artifact_ms", "ms", "lower", "fed", "spans", fedT},

		layerMetric{"runtime.peak_heap_mb", "MB", "lower", "process", "sampler", info + ": GC-phase dependent, so not gated"},
		layerMetric{"runtime.gc_pause_ms", "ms", "lower", "process", "sampler", info},
		layerMetric{"runtime.goroutines_peak", "count", "lower", "process", "sampler", info},
		layerMetric{"trace.overhead_pct", "%", "lower", "process", "spans", info + ": traced rounds against untraced rounds of the same run"},
	)
	return m
}

// The contract's lexical rules for BENCHMARK.json.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// lintSpec checks the table against the contract: lexical rules, unique
// names, bounds, counts. It is run by every mode before anything else.
func lintSpec() error {
	seen := map[string]bool{}
	name := func(kind, n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("%s name %q: want a letter or digit, then at most 63 of [A-Za-z0-9_.-]", kind, n)
		}
		if seen[n] {
			return fmt.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
		return nil
	}
	metric := func(kind, n, unit, better string) error {
		if err := name(kind, n); err != nil {
			return err
		}
		if !unitRE.MatchString(unit) {
			return fmt.Errorf("%s %s: bad unit %q", kind, n, unit)
		}
		if better != "lower" && better != "higher" {
			return fmt.Errorf("%s %s: better is %q, want lower or higher", kind, n, better)
		}
		return nil
	}
	if n := len(workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloads {
		if err := name("workload", w.Name); err != nil {
			return err
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			return fmt.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	setup := false
	for _, m := range endToEnd {
		if err := metric("end-to-end metric", m.Name, m.Unit, m.Better); err != nil {
			return err
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		return fmt.Errorf("end-to-end metrics need setup_s with unit s, lower is better")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, m := range perLayer {
		if err := metric("per-layer metric", m.Name, m.Unit, m.Better); err != nil {
			return err
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", runSeconds)
	}
	return nil
}

// benchmarkJSON renders BENCHMARK.json with exactly the contract's keys.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: command, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// readmeTables renders the generated block of benchmark/README.md.
func readmeTables() string {
	var b strings.Builder
	b.WriteString("### Workloads\n\n| name | op | one round | why |\n|---|---|---|---|\n")
	for _, w := range workloads {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", w.Name, w.Op, w.Size, w.Why)
	}
	b.WriteString("\n### End-to-end metrics\n\n| name | unit | better | bound | definition |\n|---|---|---|---|---|\n")
	for _, m := range endToEnd {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %.0f %% | %s |\n", m.Name, m.Unit, m.Better, m.Bound*100, m.Def)
	}
	b.WriteString("\n### Per-layer metrics (traced run) and the end-to-end metric each should move\n\n| layer | metric | unit | measured by | should move |\n|---|---|---|---|---|\n")
	for _, m := range perLayer {
		fmt.Fprintf(&b, "| %s | `%s` | %s | %s | %s |\n", m.Layer, m.Name, m.Unit, m.By, m.Moves)
	}
	return b.String()
}
