package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/obs"
	"imagebench/internal/results"
	"imagebench/internal/runner"
	"imagebench/internal/sweep"
)

// The API tests register synthetic experiments so they can count
// simulation executions exactly and stay fast; the real registry is
// still exercised through GET /v1/experiments.

var (
	httpRuns  atomic.Int64
	concRuns  atomic.Int64
	registerO sync.Once
)

func registerFakes() {
	registerO.Do(func() {
		fake := func(counter *atomic.Int64) func(context.Context, core.Profile) (*core.Table, error) {
			return func(context.Context, core.Profile) (*core.Table, error) {
				counter.Add(1)
				time.Sleep(10 * time.Millisecond)
				t := core.NewTable("fake", "virtual s", []string{"r"}, []string{"c"})
				t.Set("r", "c", 7)
				return t, nil
			}
		}
		core.Register(&core.Experiment{
			ID: "zz-test-http", Title: "fake http", Paper: "n/a",
			Run: fake(&httpRuns), Check: func(*core.Table) error { return nil },
		})
		core.Register(&core.Experiment{
			ID: "zz-test-conc", Title: "fake concurrent", Paper: "n/a",
			Run: fake(&concRuns), Check: func(*core.Table) error { return nil },
		})
	})
}

// newTestServer stands up the full daemon handler over a fresh
// scheduler and memory cache.
func newTestServer(t *testing.T) (*httptest.Server, *runner.Scheduler, *results.Cache) {
	t.Helper()
	registerFakes()
	cache, err := results.Open("")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	registerCacheMetrics(reg, cache)
	registerSharedInputMetrics(reg)
	sched := runner.New(runner.Options{Workers: 4, Cache: cache, Metrics: reg, Tracer: obs.NewTracer()})
	sweeps, err := sweep.NewManager(sched, "", time.Now)
	if err != nil {
		t.Fatal(err)
	}
	sweeps.RegisterMetrics(reg)
	ts := httptest.NewServer(newServer(sched, cache, sweeps, reg))
	t.Cleanup(func() {
		ts.Close()
		sched.Close()
	})
	return ts, sched, cache
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp
}

func postJobs(t *testing.T, url string, body string) (*http.Response, map[string][]runner.Info) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var out map[string][]runner.Info
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("POST /v1/jobs: decode %q: %v", raw, err)
		}
	}
	return resp, out
}

func TestHealthz(t *testing.T) {
	ts, _, _ := newTestServer(t)
	var body map[string]string
	resp := getJSON(t, ts.URL+"/healthz", &body)
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Errorf("healthz = %d %v", resp.StatusCode, body)
	}
}

func TestListExperiments(t *testing.T) {
	ts, _, _ := newTestServer(t)
	var exps []struct{ ID, Title, Paper string }
	resp := getJSON(t, ts.URL+"/v1/experiments", &exps)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(exps) < 24 {
		t.Errorf("listed %d experiments, want at least the paper's 24", len(exps))
	}
	found := false
	for _, e := range exps {
		if e.ID == "fig11" && e.Title != "" && e.Paper != "" {
			found = true
		}
	}
	if !found {
		t.Error("fig11 missing or incomplete in experiment listing")
	}
}

// TestListEngines pins the GET /v1/engines contract: exactly the five
// evaluated systems, sorted, each with its capability set and recovery
// kind — the wire form of the engine registry.
func TestListEngines(t *testing.T) {
	ts, _, _ := newTestServer(t)
	var engines []struct {
		Name         string   `json:"name"`
		Capabilities []string `json:"capabilities"`
		Recovery     string   `json:"recovery"`
	}
	resp := getJSON(t, ts.URL+"/v1/engines", &engines)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(engines) != 5 {
		t.Fatalf("listed %d engines, want the 5 evaluated systems", len(engines))
	}
	wantRecovery := map[string]string{
		"Dask":       "task-resubmit",
		"Myria":      "query-restart",
		"SciDB":      "manual-rerun",
		"Spark":      "lineage-recompute",
		"TensorFlow": "checkpoint-restart",
	}
	wantNames := []string{"Dask", "Myria", "SciDB", "Spark", "TensorFlow"} // sorted
	for i, e := range engines {
		if e.Name != wantNames[i] {
			t.Errorf("engine[%d] = %s, want %s (sorted)", i, e.Name, wantNames[i])
			continue
		}
		if e.Recovery != wantRecovery[e.Name] {
			t.Errorf("%s recovery = %q, want %q", e.Name, e.Recovery, wantRecovery[e.Name])
		}
		if len(e.Capabilities) == 0 {
			t.Errorf("%s lists no capabilities", e.Name)
		}
		hasFT := false
		for _, c := range e.Capabilities {
			if c == "fault-tolerance" {
				hasFT = true
			}
		}
		if !hasFT {
			t.Errorf("%s missing fault-tolerance capability: %v", e.Name, e.Capabilities)
		}
	}
}

func TestJobLifecycleAndResults(t *testing.T) {
	ts, _, _ := newTestServer(t)

	resp, out := postJobs(t, ts.URL, `{"experiments":["zz-test-http"],"profile":"quick","wait":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("waited submit status = %d", resp.StatusCode)
	}
	jobs := out["jobs"]
	if len(jobs) != 1 {
		t.Fatalf("got %d jobs, want 1", len(jobs))
	}
	job := jobs[0]
	if job.Status != runner.StatusDone || job.Experiment != "zz-test-http" || job.ResultKey == "" {
		t.Fatalf("job = %+v, want done with result key", job)
	}

	// GET /v1/jobs/{id}
	var got runner.Info
	if resp := getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("job fetch status = %d", resp.StatusCode)
	}
	if got.ID != job.ID || got.Status != runner.StatusDone {
		t.Errorf("job fetch = %+v", got)
	}

	// GET /v1/jobs (listing)
	var listing map[string][]runner.Info
	getJSON(t, ts.URL+"/v1/jobs", &listing)
	if len(listing["jobs"]) != 1 {
		t.Errorf("job listing has %d jobs, want 1", len(listing["jobs"]))
	}

	// GET /v1/results (key listing)
	var keys map[string][]string
	getJSON(t, ts.URL+"/v1/results", &keys)
	if len(keys["keys"]) != 1 || keys["keys"][0] != job.ResultKey {
		t.Errorf("result keys = %v, want [%s]", keys["keys"], job.ResultKey)
	}

	// GET /v1/results/{key} as JSON
	var entry results.Entry
	if resp := getJSON(t, ts.URL+"/v1/results/"+job.ResultKey, &entry); resp.StatusCode != http.StatusOK {
		t.Fatalf("result fetch status = %d", resp.StatusCode)
	}
	if entry.Experiment != "zz-test-http" || entry.Table.Get("r", "c") != 7 {
		t.Errorf("cached entry = %+v", entry)
	}

	// GET /v1/results/{key} rendered as text
	req, _ := http.NewRequest("GET", ts.URL+"/v1/results/"+job.ResultKey, nil)
	req.Header.Set("Accept", "text/plain")
	tresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	text, _ := io.ReadAll(tresp.Body)
	if ct := tresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %s", ct)
	}
	if !strings.Contains(string(text), "fake") || !strings.Contains(string(text), "7.00") {
		t.Errorf("rendered table missing content:\n%s", text)
	}
}

// TestRepeatedRequestServedFromCache is the acceptance criterion: an
// identical second request is answered from the result cache — the hit
// counter increments and no second simulation runs.
func TestRepeatedRequestServedFromCache(t *testing.T) {
	ts, _, _ := newTestServer(t)
	httpRuns.Store(0)

	body := `{"experiments":["zz-test-http"],"profile":"quick","wait":true}`
	if resp, _ := postJobs(t, ts.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("first submit status = %d", resp.StatusCode)
	}
	resp, out := postJobs(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second submit status = %d", resp.StatusCode)
	}
	if jobs := out["jobs"]; len(jobs) != 1 || !jobs[0].CacheHit || jobs[0].Status != runner.StatusDone {
		t.Fatalf("second submit jobs = %+v, want instant cache hit", out["jobs"])
	}
	if got := httpRuns.Load(); got != 1 {
		t.Errorf("simulation ran %d times, want 1", got)
	}
	var m map[string]float64
	getJSON(t, ts.URL+"/metrics.json", &m)
	if m["jobs_executed"] != 1 {
		t.Errorf("jobs_executed = %v, want 1", m["jobs_executed"])
	}
	if m["cache_hits"] < 1 {
		t.Errorf("cache_hits = %v, want >= 1", m["cache_hits"])
	}
	if m["virtual_seconds_simulated"] != 7 {
		t.Errorf("virtual_seconds_simulated = %v, want 7", m["virtual_seconds_simulated"])
	}
}

// TestConcurrentIdenticalSubmitsExecuteOnce fires N identical POSTs for
// each of K distinct keys, all concurrently, and proves every key's
// simulation executed exactly once across single-flight dedup and the
// result cache, with every POST accounted for: it either opened a job
// or joined one in flight, and every job beyond the K that executed
// was a cache hit.
func TestConcurrentIdenticalSubmitsExecuteOnce(t *testing.T) {
	ts, _, _ := newTestServer(t)
	concRuns.Store(0)

	const k, n = 4, 8
	var wg sync.WaitGroup
	errs := make(chan error, k*n)
	for i := 0; i < k*n; i++ {
		body := fmt.Sprintf(`{"experiments":["zz-test-conc"],"overrides":{"clusterNodes":[%d]},"wait":true}`, 4+i%k)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, out := postJobs(t, ts.URL, body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			jobs := out["jobs"]
			if len(jobs) != 1 || jobs[0].Status != runner.StatusDone {
				errs <- fmt.Errorf("jobs = %+v", jobs)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := concRuns.Load(); got != k {
		t.Errorf("simulation executed %d times under %d concurrent requests for each of %d keys, want exactly %d", got, n, k, k)
	}
	var m map[string]float64
	getJSON(t, ts.URL+"/metrics.json", &m)
	if m["jobs_executed"] != k {
		t.Errorf("jobs_executed = %v, want %d", m["jobs_executed"], k)
	}
	if got := m["jobs_submitted"] + m["jobs_deduped"]; got != k*n {
		t.Errorf("submitted (%v) + deduped (%v) = %v, want one per POST = %d",
			m["jobs_submitted"], m["jobs_deduped"], got, k*n)
	}
	if got := m["jobs_deduped"] + m["jobs_cache_hits"]; got != k*(n-1) {
		t.Errorf("deduped (%v) + job cache hits (%v) = %v, want %d",
			m["jobs_deduped"], m["jobs_cache_hits"], got, k*(n-1))
	}
}

func TestSubmitValidation(t *testing.T) {
	ts, _, _ := newTestServer(t)
	cases := []struct {
		body string
		want int
	}{
		{`{"experiments":[]}`, http.StatusBadRequest},
		{`{"experiments":["nope"]}`, http.StatusBadRequest},
		{`{"experiments":["fig11"],"profile":"huge"}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if resp, _ := postJobs(t, ts.URL, c.body); resp.StatusCode != c.want {
			t.Errorf("POST %q = %d, want %d", c.body, resp.StatusCode, c.want)
		}
	}
}

func TestRequestBodyLimits(t *testing.T) {
	ts, _, _ := newTestServer(t)
	// A body over the cap is rejected with 413 before any decoding.
	huge := `{"experiments":["` + strings.Repeat("x", maxRequestBytes) + `"]}`
	for _, path := range []string{"/v1/jobs", "/v1/sweeps"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with oversized body: status %d, want 413", path, resp.StatusCode)
		}
	}
	// A body within the cap still works.
	resp, _ := postJobs(t, ts.URL, `{"experiments":["zz-test-http"],"wait":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("POST /v1/jobs under the cap: status %d", resp.StatusCode)
	}
}

func TestRejectsUnknownFields(t *testing.T) {
	ts, _, _ := newTestServer(t)
	// A typoed key must fail loudly, not silently submit an empty job.
	for path, body := range map[string]string{
		"/v1/jobs":   `{"experimens":["zz-test-http"]}`,
		"/v1/sweeps": `{"experiments":["zz-test-http"],"profles":["quick"]}`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		var apiErr map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
			t.Fatalf("POST %s: decode error body: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s with unknown field: status %d, want 400", path, resp.StatusCode)
		}
		if !strings.Contains(apiErr["error"], "unknown field") {
			t.Errorf("POST %s: error %q does not name the unknown field", path, apiErr["error"])
		}
	}
}

func TestNotFounds(t *testing.T) {
	ts, _, _ := newTestServer(t)
	for _, path := range []string{
		"/v1/jobs/job-12345",
		"/v1/results/" + strings.Repeat("ab", 32),
		"/v1/results/not-a-key",
	} {
		if resp := getJSON(t, ts.URL+path, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestMetricsShape runs one job and one sweep, then requires both
// renderings of the registry to show them: every /metrics.json key, and
// in the Prometheus exposition the job latency histogram, the per-layer
// cache counters and the sweep gauge populated by that traffic.
func TestMetricsShape(t *testing.T) {
	ts, _, _ := newTestServer(t)
	if resp, _ := postJobs(t, ts.URL, `{"experiments":["zz-test-http"],"wait":true}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("job submit status = %d", resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"experiments":["zz-test-http"],"profiles":["quick"],"wait":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep submit status = %d", resp.StatusCode)
	}

	var m map[string]any
	resp = getJSON(t, ts.URL+"/metrics.json", &m)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	for _, k := range []string{
		"uptime_seconds", "workers", "jobs_submitted", "jobs_executed",
		"jobs_failed", "jobs_deduped", "jobs_in_flight", "jobs_running",
		"cache_hits", "cache_mem_hits", "cache_misses", "cache_entries", "sweeps",
		"journal_errors", "virtual_seconds_simulated",
	} {
		if _, ok := m[k]; !ok {
			t.Errorf("metrics missing %q", k)
		}
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d, read error %v", resp.StatusCode, err)
	}
	// The sweep's one cell is the job's key again: two jobs reached a
	// terminal state, the second as a memory-layer cache hit, in one sweep.
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	lines := []string{
		`imagebench_job_latency_seconds_bucket{le="+Inf"} 2`,
		`imagebench_cache_hits_total{layer="memory"} 1`,
		`imagebench_sweeps 1`,
	}
	// The shared inputs' series read exactly what core reports: nothing
	// builds a workload during the scrape.
	is := core.InputStats()
	lines = append(lines, "imagebench_shared_input_bytes "+num(float64(is.Bytes)))
	for i, kind := range core.InputKinds() {
		lines = append(lines,
			fmt.Sprintf(`imagebench_shared_input_hits_total{kind="%s"} %s`, kind, num(float64(is.Kinds[i].Hits))),
			fmt.Sprintf(`imagebench_shared_input_misses_total{kind="%s"} %s`, kind, num(float64(is.Kinds[i].Misses))))
	}
	for _, line := range lines {
		if !strings.Contains("\n"+string(text), "\n"+line+"\n") {
			t.Errorf("/metrics lacks the line %q", line)
		}
	}
	if strings.Contains(string(text), "imagebench_kernel_memo_") {
		t.Error("/metrics still serves an imagebench_kernel_memo_ series")
	}
	if t.Failed() {
		t.Logf("/metrics:\n%s", text)
	}

	// The shipped daemon registers the same shared-input series.
	d, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var shipped strings.Builder
	if err := d.Metrics.WriteText(&shipped); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(shipped.String(), "\nimagebench_shared_input_bytes ") {
		t.Error("daemon.New's registry lacks imagebench_shared_input_bytes")
	}
}

// TestSweepEndpoint drives the acceptance criterion: a ≥6-cell grid
// submitted through POST /v1/sweeps completes with per-cell results,
// is idempotent on resubmission, and is inspectable via GET.
func TestSweepEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t)
	httpRuns.Store(0)
	concRuns.Store(0)

	body := `{"experiments":["zz-test-http","zz-test-conc"],
	          "overrides":[{"clusterNodes":[4]},{"clusterNodes":[8]},{"clusterNodes":[16]}],
	          "wait":true}`
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	var info sweep.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep submit status = %d", resp.StatusCode)
	}
	if info.Total != 6 || info.Done != 6 || info.Failed != 0 || !info.Finished() {
		t.Fatalf("sweep info = %+v, want 6/6 done", info)
	}
	if len(info.Cells) != 6 {
		t.Fatalf("sweep returned %d cells, want 6", len(info.Cells))
	}
	profiles := map[string]bool{}
	for _, c := range info.Cells {
		if c.Status != runner.StatusDone || c.Key == "" {
			t.Errorf("cell %+v not done with key", c)
		}
		profiles[c.Profile] = true
		// Every cell's result is individually retrievable.
		var entry results.Entry
		if r := getJSON(t, ts.URL+"/v1/results/"+c.Key, &entry); r.StatusCode != http.StatusOK {
			t.Errorf("cell result fetch = %d", r.StatusCode)
		}
	}
	if len(profiles) != 3 {
		t.Errorf("cells span %d derived profiles, want 3: %v", len(profiles), profiles)
	}
	if got := httpRuns.Load() + concRuns.Load(); got != 6 {
		t.Errorf("executed %d simulations, want 6", got)
	}

	// GET /v1/sweeps/{id} serves the same aggregate.
	var fetched sweep.Info
	if r := getJSON(t, ts.URL+"/v1/sweeps/"+info.ID, &fetched); r.StatusCode != http.StatusOK {
		t.Fatalf("sweep fetch = %d", r.StatusCode)
	}
	if fetched.ID != info.ID || fetched.Done != 6 || len(fetched.Cells) != 6 {
		t.Errorf("fetched sweep = %+v", fetched)
	}

	// GET /v1/sweeps lists it without cells.
	var listing map[string][]sweep.Info
	getJSON(t, ts.URL+"/v1/sweeps", &listing)
	if n := len(listing["sweeps"]); n != 1 {
		t.Errorf("sweep listing has %d entries, want 1", n)
	} else if cells := listing["sweeps"][0].Cells; len(cells) != 0 {
		t.Errorf("listing includes %d cells, want none", len(cells))
	}

	// Identical resubmission: 200, same sweep, nothing re-executed.
	resp2, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	var again sweep.Info
	json.NewDecoder(resp2.Body).Decode(&again)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || again.ID != info.ID {
		t.Errorf("resubmit = %d id %s, want 200 id %s", resp2.StatusCode, again.ID, info.ID)
	}
	if got := httpRuns.Load() + concRuns.Load(); got != 6 {
		t.Errorf("idempotent resubmit re-executed: %d runs", got)
	}

	var m map[string]float64
	getJSON(t, ts.URL+"/metrics.json", &m)
	if m["sweeps"] != 1 {
		t.Errorf("metrics sweeps = %v, want 1", m["sweeps"])
	}
}

func TestSweepValidationAndNotFound(t *testing.T) {
	ts, _, _ := newTestServer(t)
	for _, body := range []string{
		`{}`,
		`{"experiments":["no-such-*"]}`,
		`{"experiments":["zz-test-http"],"profiles":["huge"]}`,
		`{"experiments":["zz-test-http"],"overrides":[{"clusterNodes":[0]}]}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /v1/sweeps %q = %d, want 400", body, resp.StatusCode)
		}
	}
	if resp := getJSON(t, ts.URL+"/v1/sweeps/sw-000000000000", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep = %d, want 404", resp.StatusCode)
	}
}
