package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/engine"
	"imagebench/internal/sweep"
)

// The workloads at toy scale: a handful of ops each, through the same
// harness (runWorkload) and the same constructors the real sizes use.

var toyFigures = []string{"fig10a", "table1", "abl-spark-pytax", "fig10f"}

func toySpec() sweep.Spec {
	return sweep.Spec{
		Experiments: []string{"abl-myria-pushdown", "fig10b", "table1"},
		Overrides:   []core.Overrides{{ClusterNodes: []int{3}}, {ClusterNodes: []int{5}}},
	}
}

func toyWorkloads() map[string]workload {
	spec := func(name string) *workloadSpec { return &workloadSpec{Name: name} }
	return map[string]workload{
		"figures": {spec("figures"), func(ctx context.Context, e *env) (instance, error) {
			return newFiguresInst(e, toyFigures)
		}},
		"sweep-astro": {spec("sweep-astro"), func(ctx context.Context, e *env) (instance, error) {
			return newSweepInst(ctx, e, toySpec(), "quick+nodes=5")
		}},
		"serve-hot": {spec("serve-hot"), func(ctx context.Context, e *env) (instance, error) {
			return newServeInst(ctx, e, []string{"fig10a", "table1"}, 2, 60)
		}},
		"fed-tiny": {spec("fed-tiny"), func(ctx context.Context, e *env) (instance, error) {
			return newFedInst(ctx, e, toySpec())
		}},
	}
}

func toyOptions(t *testing.T, trace int) options {
	dir := t.TempDir()
	return options{seed: 7, seconds: 0, trace: trace, workDir: filepath.Join(dir, "work"), traceOut: filepath.Join(dir, "trace.json")}
}

// lastLine decodes the result line a report prints.
func lastLine(t *testing.T, rep *report) (resultLine, string) {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, buf.String())
	}
	return res, buf.String()
}

func TestWorkloadsAtToyScale(t *testing.T) {
	wantOps := map[string]int{"figures": len(toyFigures), "sweep-astro": 6, "fed-tiny": 6}
	for name, w := range toyWorkloads() {
		t.Run(name, func(t *testing.T) {
			o := toyOptions(t, 0)
			rep, err := runWorkload(context.Background(), w, o)
			if err != nil {
				t.Fatal(err)
			}
			res, out := lastLine(t, rep)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("toy run failed ops:\n%s", out)
			}
			if want, ok := wantOps[name]; ok && res.Attempted != want {
				t.Errorf("attempted %d ops, want %d", res.Attempted, want)
			}
			if name == "serve-hot" && res.Attempted != 60*rep.Par {
				t.Errorf("attempted %d requests, want %d", res.Attempted, 60*rep.Par)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("result line has %d metrics, want the %d end-to-end ones", len(res.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("metric %s = %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(rep.SetupsS) < minSetups {
				t.Errorf("%d set-ups, want at least %d", len(rep.SetupsS), minSetups)
			}
			if rep.Clients > rep.NProc || rep.Connections > rep.NProc || rep.RunnerWorkers > rep.NProc {
				t.Errorf("sizes %d/%d/%d exceed nproc %d", rep.Clients, rep.Connections, rep.RunnerWorkers, rep.NProc)
			}
			if _, err := os.Stat(o.workDir); !os.IsNotExist(err) {
				t.Errorf("scratch directory %s left behind (%v)", o.workDir, err)
			}
		})
	}
}

// A traced run prints exactly the per-layer metrics. The ones that come
// from the traced rounds are checked here on the workload that exercises
// most of them; the probes are left out (they take seconds) and two cheap
// ones are run on their own below.
func TestTracedRoundsAtToyScale(t *testing.T) {
	w := toyWorkloads()["fed-tiny"]
	o := toyOptions(t, 1)
	o.skipProbes = true
	rep, err := runWorkload(context.Background(), w, o)
	if err != nil {
		t.Fatal(err)
	}
	res, out := lastLine(t, rep)
	if len(res.Metrics) != len(perLayer) {
		t.Fatalf("traced result line has %d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
	}
	for _, m := range perLayer {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("per-layer metric %s missing or in the wrong unit: %+v", m.Name, got)
		}
	}
	for _, name := range []string{"fed.overhead_x", "fed.max_worker_share", "fed.artifact_ms", "runner.execute_ms_p50", "runner.cache_write_ms_p50", "runtime.peak_heap_mb"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want it measured\n%s", name, res.Metrics[name].Value, out)
		}
	}
	// With one worker there is no peer to replicate to.
	if want := float64((rep.Par - 1) * res.Attempted / 2); res.Metrics["fed.replications"].Value != want {
		t.Errorf("fed.replications = %v, want %v (traced round's cells x peers)", res.Metrics["fed.replications"].Value, want)
	}
	var doc struct {
		Workload string
		Spans    []span
	}
	b, err := os.ReadFile(o.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range doc.Spans {
		names[s.Name] = true
		if s.EndNs < s.StartNs {
			t.Errorf("span %d %q never ended", s.ID, s.Name)
		}
	}
	for _, want := range []string{"round", "setup", "daemon.StartLocal", "fed.Coordinator.Run", "fed.Result.WriteArtifact", "fed.http.submit", "fed.http.fetch", "execute", "cache-write"} {
		if !names[want] {
			t.Errorf("trace has no %q span", want)
		}
	}
}

func TestCheapProbes(t *testing.T) {
	e := &env{seed: 1, par: 1, dir: t.TempDir()}
	m := map[string]float64{}
	for _, probe := range []func(context.Context, *env, map[string]float64) error{probeStorage, probeImaging2D} {
		if err := probe(context.Background(), e, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"results.get_mem_ns", "results.get_disk_us", "results.put_disk_us", "jsonl.append_us", "fsatomic.writefile_us",
		"runner.journal_record_us", "fed.journal_record_us", "core.table_encode_us", "imaging.cosmicray_ms", "fits.codec_ms", "synth.gen_astro_ms"} {
		if m[name] <= 0 {
			t.Errorf("%s = %v, want it measured", name, m[name])
		}
	}
}

// An op that does not verify is counted as failed, earns no throughput,
// and neither aborts the run nor changes its exit: the ops after it still
// run and the result line is still printed.
func TestFailedOpIsCountedNotTimedAsSuccess(t *testing.T) {
	w := workload{&workloadSpec{Name: "figures"}, func(ctx context.Context, e *env) (instance, error) {
		f, err := newFiguresInst(e, toyFigures)
		if err != nil {
			return nil, err
		}
		f.golden[toyFigures[1]] = []byte("not the table\n") // the injected failure
		return f, nil
	}}
	rep, err := runWorkload(context.Background(), w, toyOptions(t, 0))
	if err != nil {
		t.Fatalf("a failed op aborted the run: %v", err)
	}
	res, out := lastLine(t, rep)
	if res.Correct || res.Attempted != len(toyFigures) || res.Failed != 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d, want false/%d/1\n%s", res.Correct, res.Attempted, res.Failed, len(toyFigures), out)
	}
	r := rep.Rounds[0]
	if got, want := res.Metrics["ops_per_s"].Value, float64(len(toyFigures)-1)/r.WallS; got != want {
		t.Errorf("ops_per_s = %v, want %v: only verified ops may count", got, want)
	}
	if !strings.Contains(out, "failure "+toyFigures[1]) {
		t.Errorf("report does not say which op failed:\n%s", out)
	}
}

func TestRealMainRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "figures", "--trace", "2"},
		{"--workload", "figures", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if code := realMain(context.Background(), args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d with %d bytes of output, want a non-zero exit and no result", args, code, out.Len())
		}
	}
}

func TestBaselineRefusesSingleCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var out, errb bytes.Buffer
	o := options{baseline: true, sets: 2, runs: 3, seconds: 1, out: filepath.Join(t.TempDir(), "baseline.json")}
	err := recordBaseline(context.Background(), o, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "GOMAXPROCS=1") {
		t.Fatalf("recordBaseline at GOMAXPROCS=1: %v, want a refusal", err)
	}
	if _, statErr := os.Stat(o.out); !os.IsNotExist(statErr) {
		t.Errorf("a baseline was written at GOMAXPROCS=1")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 50}, {4, 50}, {20, 50}, {21, 52}, {25, 60}, {100, 90}, {199, 94}, {200, 95}, {50000, 95},
	} {
		if got := tailPercentile(c.n, 95); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
		// The rule itself: the chosen percentile has 10 samples beyond
		// it, and the next one up (if allowed) does not.
		p := tailPercentile(c.n, 95)
		beyond := func(p int) int { return c.n - (p*c.n+99)/100 }
		if p > 50 && beyond(p) < 10 {
			t.Errorf("n=%d: p%d has only %d samples beyond it", c.n, p, beyond(p))
		}
		if p < 95 && p > 50 && beyond(p+1) >= 10 {
			t.Errorf("n=%d: p%d also has 10 samples beyond it", c.n, p+1)
		}
	}
	xs := make([]float64, 25)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 60); got != 15 {
		t.Errorf("p60 of 1..25 = %v, want the 15th smallest", got)
	}
	if got := percentile(xs, 50); got != 13 {
		t.Errorf("p50 of 1..25 = %v, want 13", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimeIsSpanMinusChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, StartNs: 20, EndNs: 50}, // overlaps span 2: parallel children
		{ID: 4, Parent: 1, StartNs: 60, EndNs: 70},
		{ID: 5, Parent: 1, StartNs: 90, EndNs: 130}, // outlives the parent: clipped
		{ID: 6, Parent: 3, StartNs: 25, EndNs: 45},  // grandchild: only span 3's business
		{ID: 7, Parent: 99, StartNs: 0, EndNs: 5},   // parent not in the trace
	}
	want := map[int]int64{1: 100 - (40 + 10 + 10), 2: 20, 3: 10, 4: 10, 5: 40, 6: 20, 7: 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	sum := summarize(spans[:4])
	if len(sum) != 1 || sum[0].Count != 4 {
		t.Fatalf("summarize groups by name: %+v", sum)
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	sp := tr.start(spanRef{}, "x", "")
	sp.end()
	tr.harvest(sp, nil, time.Time{})
	tr.add(sp, "x", "", time.Now(), time.Second)
	if d := tr.durationsMs("x"); d != nil {
		t.Errorf("nil tracer recorded %v", d)
	}
}

func TestSpecIsValidAndMatchesCommittedFiles(t *testing.T) {
	if err := lintSpec(); err != nil {
		t.Fatal(err)
	}
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the table in spec.go; regenerate it with: go run ./benchmark -spec > BENCHMARK.json")
	}
	readme, err := os.ReadFile(filepath.Join(root, "benchmark", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(readme, []byte(readmeTables())) {
		t.Errorf("benchmark/README.md does not contain the generated tables; regenerate them with: go run ./benchmark -tables")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over the 64 KiB limit", len(got))
	}
}

func TestLintCatchesBadNames(t *testing.T) {
	save := workloads[0].Name
	defer func() { workloads[0].Name = save }()
	for _, bad := range []string{"", "-leading", "has space", "sweep-astro", strings.Repeat("x", 65)} {
		workloads[0].Name = bad
		if err := lintSpec(); err == nil {
			t.Errorf("lintSpec accepted workload name %q", bad)
		}
	}
}

func TestTableCoversTheProgram(t *testing.T) {
	for _, w := range workloads {
		if setups[w.Name] == nil {
			t.Errorf("workload %s has no set-up", w.Name)
		}
	}
	if len(setups) != len(workloads) {
		t.Errorf("%d set-ups for %d workloads", len(setups), len(workloads))
	}
	var neuro, astro []string
	for _, e := range engine.All() {
		neuro = append(neuro, "neuro.engine_run_ms."+e.Name())
	}
	for _, e := range engine.Supporting(engine.CapAstroE2E) {
		astro = append(astro, "astro.engine_run_ms."+e.Name())
	}
	if !sameSet(neuro, neuroEngineMetrics) {
		t.Errorf("neuro engine metrics %v, registry has %v", neuroEngineMetrics, neuro)
	}
	if !sameSet(astro, astroEngineMetrics) {
		t.Errorf("astro engine metrics %v, registry has %v", astroEngineMetrics, astro)
	}
	for _, id := range append(append([]string{heldOut}, expSpanIDs...), append(astroExperiments, append(serveExperiments, tinyExperiments...)...)...) {
		if _, err := core.Lookup(id); err != nil {
			t.Errorf("the benchmark names experiment %s: %v", id, err)
		}
	}
}

func sameSet(a, b []string) bool {
	m := map[string]int{}
	for _, x := range a {
		m[x]++
	}
	for _, x := range b {
		m[x]--
	}
	for _, n := range m {
		if n != 0 {
			return false
		}
	}
	return true
}

// The seeded inputs: the same seed gives the same inputs, another seed
// gives others, and sweep-astro's are the same work whatever the seed
// (the same pairs, in another order).
func TestSeededInputs(t *testing.T) {
	a, b, c := astroOverrides(1), astroOverrides(1), astroOverrides(2)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("astroOverrides is not a function of the seed")
	}
	if reflect.DeepEqual(a, c) {
		t.Errorf("astroOverrides ignores the seed")
	}
	seen := map[int]bool{}
	for _, o := range c {
		if len(o.ClusterNodes) != 2 || o.ClusterNodes[0]+o.ClusterNodes[1] != astroPairSum {
			t.Errorf("axis point %v: want a pair summing to %d", o.ClusterNodes, astroPairSum)
		}
		seen[o.ClusterNodes[0]] = true
	}
	if len(seen) != astroPoints {
		t.Errorf("seed 2 has %d distinct axis points, want %d", len(seen), astroPoints)
	}
	if !reflect.DeepEqual(tinySpec(5, tinyPoints), tinySpec(5, tinyPoints)) || reflect.DeepEqual(tinySpec(5, tinyPoints), tinySpec(6, tinyPoints)) {
		t.Errorf("tinySpec does not follow the seed")
	}
	cells, err := sweep.Expand(tinySpec(5, tinyPoints))
	if err != nil || len(cells) != tinyPoints*len(tinyExperiments) {
		t.Errorf("fed-tiny grid expands to %d cells (%v), want %d", len(cells), err, tinyPoints*len(tinyExperiments))
	}
}
