package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"imagebench/internal/bench"
)

// runBench drives the bench subcommand exactly as main would and
// returns (exit code, stdout, stderr).
func runBench(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := benchMain(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestBenchCommandRegressionGate covers the full CLI loop on one cheap
// kernel case: a self-baseline passes and exits 0, an injected
// synthetic slowdown (a baseline claiming the case used to run 1000x
// faster with fewer allocations) exits nonzero.
func TestBenchCommandRegressionGate(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH_base.json")
	out := filepath.Join(dir, "BENCH_out.json")

	// Record the baseline.
	code, stdout, stderr := runBench(t, "-reps", "1", "-out", baseline, "kernel/nlmeans3/seq")
	if code != 0 {
		t.Fatalf("baseline run exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}

	// Same code vs its own baseline: generous tolerance absorbs timer
	// noise between the two runs, exact metrics match trivially.
	code, stdout, stderr = runBench(t, "-reps", "1", "-baseline", baseline, "-tolerance", "20", "kernel/nlmeans3/seq")
	if code != 0 {
		t.Fatalf("self-baseline exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "no regressions") {
		t.Errorf("expected a clean report, got:\n%s", stdout)
	}

	// Inject the slowdown: rewrite the baseline to claim the case was
	// 1000x faster with 1000x fewer allocations. The current
	// (unchanged) code is now a regression and the command must exit
	// nonzero. Shrinking allocs as well as wall keeps the test
	// independent of the wall noise floor: on hardware fast enough that
	// the whole case runs under the floor, the alloc gate (which has no
	// floor) still trips.
	art, err := bench.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	res := art.Results["kernel/nlmeans3/seq"]
	for _, m := range []string{bench.MetricWallNS, bench.MetricAllocs} {
		d := res.Metrics[m]
		d.Min, d.Mean, d.Max = d.Min/1000, d.Mean/1000, d.Max/1000
		res.Metrics[m] = d
	}
	art.Results["kernel/nlmeans3/seq"] = res
	if err := art.WriteFile(baseline); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr = runBench(t, "-reps", "1", "-baseline", baseline, "-out", out, "kernel/nlmeans3/seq")
	if code == 0 {
		t.Fatalf("injected slowdown must exit nonzero\nstdout:\n%s", stdout)
	}
	if !strings.Contains(stdout, "REGRESSION") || !strings.Contains(stderr, "regression(s)") {
		t.Errorf("regression not reported\nstdout:\n%s\nstderr:\n%s", stdout, stderr)
	}
	// The artifact is still written even when the gate fails, so CI can
	// upload it for inspection.
	if _, err := os.Stat(out); err != nil {
		t.Errorf("artifact not written on regression: %v", err)
	}
}

// TestBenchCommandSubsetGating: gating a selected subset against a
// full baseline must only compare the selected cases — the documented
// `bench -baseline BENCH_8.json kernel/...` workflow — while a full run
// still flags baseline cases the surface lost.
func TestBenchCommandSubsetGating(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH_base.json")
	// Baseline covers two cases; the gated run selects only one.
	code, stdout, stderr := runBench(t, "-reps", "1", "-out", baseline,
		"kernel/sepconv3/seq", "kernel/sepconv3/par")
	if code != 0 {
		t.Fatalf("baseline run exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	code, stdout, stderr = runBench(t, "-reps", "1", "-baseline", baseline, "-tolerance", "20",
		"kernel/sepconv3/seq")
	if code != 0 {
		t.Fatalf("subset gate exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if strings.Contains(stdout, "missing from this run") {
		t.Errorf("unselected baseline cases must not be gated:\n%s", stdout)
	}
}

func TestBenchCommandUsageErrors(t *testing.T) {
	if code, _, _ := runBench(t, "-profile", "nope", "kernel/nlmeans3/seq"); code != 2 {
		t.Errorf("bad profile: exit %d, want 2", code)
	}
	if code, _, _ := runBench(t, "no/such/case"); code != 2 {
		t.Errorf("unknown case: exit %d, want 2", code)
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A malformed baseline must fail before any measurement starts.
	if code, _, stderr := runBench(t, "-baseline", bad, "kernel/nlmeans3/seq"); code != 2 || !strings.Contains(stderr, "malformed") {
		t.Errorf("malformed baseline: exit %d, stderr %q", code, stderr)
	}
}

func TestBenchCommandList(t *testing.T) {
	code, stdout, _ := runBench(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, want := range []string{"exp/fig10c", "exp/table1", "kernel/nlmeans3/par", "kernel/nlmeans3/seq"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("-list missing %s:\n%s", want, stdout)
		}
	}
}
