package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/results"
	"imagebench/internal/runner"
	"imagebench/internal/sweep"
)

// Regression tests for the API-contract bugs a federation coordinator
// cannot tolerate: partial batch submission losing accepted job IDs,
// Accept-header substring matching, and the POST /v1/results ingest
// endpoint the replication path depends on.

var (
	blockStarts   atomic.Int64
	registerBlock sync.Once
)

// registerBlockers registers experiments whose Run blocks until the
// scheduler shuts down, so a test can wedge a one-worker scheduler and
// exercise queue-full submission deterministically.
func registerBlockers() {
	registerBlock.Do(func() {
		for _, id := range []string{"zz-test-block-a", "zz-test-block-b", "zz-test-block-c", "zz-test-block-d"} {
			core.Register(&core.Experiment{
				ID: id, Title: "fake blocker", Paper: "n/a",
				Run: func(ctx context.Context, _ core.Profile) (*core.Table, error) {
					blockStarts.Add(1)
					<-ctx.Done()
					return nil, ctx.Err()
				},
				Check: func(*core.Table) error { return nil },
			})
		}
	})
}

// newTinyServer stands up the handler over a one-worker, one-slot
// scheduler so the third concurrent submission hits ErrQueueFull.
func newTinyServer(t *testing.T) *httptest.Server {
	t.Helper()
	registerBlockers()
	cache, err := results.Open("")
	if err != nil {
		t.Fatal(err)
	}
	sched := runner.New(runner.Options{Workers: 1, QueueDepth: 1, Cache: cache})
	sweeps, err := sweep.NewManager(sched, "", time.Now)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(sched, cache, sweeps, nil))
	t.Cleanup(func() {
		ts.Close()
		sched.Close()
	})
	return ts
}

// TestSubmitRejectsBatchWithUnknownID proves no job starts when any ID
// in the batch is bad. Pre-fix, handleSubmit submitted in a loop and
// bailed mid-way: fig-like experiments before the bad ID ran anyway
// while the client saw only the error.
func TestSubmitRejectsBatchWithUnknownID(t *testing.T) {
	ts, sched, _ := newTestServer(t)
	resp, _ := postJobs(t, ts.URL, `{"experiments":["zz-test-http","zz-no-such-exp"]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if st := sched.Stats(); st.Submitted != 0 {
		t.Errorf("%d jobs submitted from a batch with an unknown ID, want 0", st.Submitted)
	}
	if n := len(sched.Jobs()); n != 0 {
		t.Errorf("job index holds %d jobs, want 0", n)
	}
}

// TestSubmitCapacityReturnsAcceptedJobs wedges a one-worker scheduler,
// then submits a three-job batch: the first queues, the second
// overflows. The 503 must carry the accepted job's info alongside the
// error — pre-fix the body was only {"error": ...} and the client
// could never poll or account for the job it had in fact started.
func TestSubmitCapacityReturnsAcceptedJobs(t *testing.T) {
	ts := newTinyServer(t)
	blockStarts.Store(0)

	// Occupy the lone worker and wait until its job is truly running,
	// so the next submissions deterministically stay queued.
	resp, _, _ := postRaw(t, ts.URL+"/v1/jobs", `{"experiments":["zz-test-block-a"]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("wedge submit status = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for blockStarts.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body, _ := postRaw(t, ts.URL+"/v1/jobs",
		`{"experiments":["zz-test-block-b","zz-test-block-c","zz-test-block-d"]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit status = %d, want 503 (body %s)", resp.StatusCode, body)
	}
	var out struct {
		Jobs  []runner.Info `json:"jobs"`
		Error string        `json:"error"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode overflow response %q: %v", body, err)
	}
	if out.Error == "" || !strings.Contains(out.Error, "zz-test-block-c") {
		t.Errorf("error %q does not name the rejected experiment", out.Error)
	}
	if len(out.Jobs) != 1 {
		t.Fatalf("response carries %d accepted jobs, want 1 (the queued zz-test-block-b): %+v", len(out.Jobs), out.Jobs)
	}
	if j := out.Jobs[0]; j.ID == "" || j.Experiment != "zz-test-block-b" {
		t.Errorf("accepted job = %+v, want zz-test-block-b with an ID", j)
	}
	if !strings.Contains(out.Error, "1 of 3") {
		t.Errorf("error %q does not account for the partial batch", out.Error)
	}
	// The surfaced ID is pollable.
	r, err := http.Get(ts.URL + "/v1/jobs/" + out.Jobs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("poll accepted job = %d, want 200", r.StatusCode)
	}
}

func postRaw(t *testing.T, url, body string) (*http.Response, []byte, error) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp, raw, err
}

// TestSubmitWithOverrides drives the derived-profile form a federation
// coordinator uses to submit individual sweep cells.
func TestSubmitWithOverrides(t *testing.T) {
	ts, _, _ := newTestServer(t)
	resp, out := postJobs(t, ts.URL,
		`{"experiments":["zz-test-http"],"profile":"quick","overrides":{"clusterNodes":[4]},"wait":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	jobs := out["jobs"]
	if len(jobs) != 1 || jobs[0].Status != runner.StatusDone {
		t.Fatalf("jobs = %+v", jobs)
	}
	if jobs[0].Profile != "quick+nodes=4" {
		t.Errorf("job profile = %q, want the derived quick+nodes=4", jobs[0].Profile)
	}

	resp, _ = postJobs(t, ts.URL, `{"experiments":["zz-test-http"],"overrides":{"clusterNodes":[0]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid overrides status = %d, want 400", resp.StatusCode)
	}
}

func TestAcceptsPlainText(t *testing.T) {
	cases := []struct {
		accept string
		want   bool
	}{
		{"", false},
		{"text/plain", true},
		{"TEXT/PLAIN", true},
		{"application/json", false},
		// The regression: the old substring check rendered plain text
		// for a client that explicitly refused it.
		{"application/json, text/plain;q=0", false},
		{"text/plain;q=0", false},
		{"text/plain;q=0.9, application/json;q=0.1", true},
		{"application/json;q=0.5, text/plain", true},
		{"text/*", true},
		{"*/*", false}, // tie: the server's default representation wins
		{"text/plain, application/json", false},
		{"application/*;q=0.2, text/plain;q=0.5", true},
		{"application/json;q=0.8, */*;q=0.1", false},
		{"*/*;q=0.1, text/plain;q=0.5", true},
		{"text/plain ; q=0.4, application/json ; q=0.2", true},
		{"text/plain;q=banana", true}, // malformed q: keep the default 1
		{"garbage", false},
		{"text/plain;charset=utf-8;q=0.2, application/json;q=0.1", true},
	}
	for _, c := range cases {
		if got := acceptsPlainText(c.accept); got != c.want {
			t.Errorf("acceptsPlainText(%q) = %v, want %v", c.accept, got, c.want)
		}
	}
}

// TestResultAcceptNegotiation is the HTTP-level regression: a client
// that q=0-refuses text/plain must get JSON.
func TestResultAcceptNegotiation(t *testing.T) {
	ts, _, _ := newTestServer(t)
	resp, out := postJobs(t, ts.URL, `{"experiments":["zz-test-http"],"wait":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	key := out["jobs"][0].ResultKey

	cases := []struct {
		accept   string
		wantJSON bool
	}{
		{"application/json, text/plain;q=0", true},
		{"text/plain", false},
		{"", true},
	}
	for _, c := range cases {
		req, _ := http.NewRequest("GET", ts.URL+"/v1/results/"+key, nil)
		if c.accept != "" {
			req.Header.Set("Accept", c.accept)
		}
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		ct := r.Header.Get("Content-Type")
		r.Body.Close()
		if gotJSON := strings.HasPrefix(ct, "application/json"); gotJSON != c.wantJSON {
			t.Errorf("Accept %q served Content-Type %q", c.accept, ct)
		}
	}
}

// TestWriteJSONEncodeError proves an unmarshalable response value
// becomes a 500 error document, not a 200 with a truncated body.
func TestWriteJSONEncodeError(t *testing.T) {
	rec := httptest.NewRecorder()
	srv := &server{}
	srv.WriteJSON(rec, http.StatusOK, map[string]any{"ch": make(chan int)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body %q is not JSON: %v", rec.Body.String(), err)
	}
	if !strings.Contains(e.Error, "encode response") {
		t.Errorf("error = %q", e.Error)
	}
}

// TestResultIngest drives POST /v1/results, the replication path by
// which a table computed on one worker becomes servable from another.
func TestResultIngest(t *testing.T) {
	ts, _, cache := newTestServer(t)
	profile, err := core.ProfileByName("quick")
	if err != nil {
		t.Fatal(err)
	}
	table := core.NewTable("ingested", "virtual s", []string{"r"}, []string{"c"})
	table.Set("r", "c", 42)
	entry := results.Entry{
		Key:        results.Key("zz-test-http", profile),
		Experiment: "zz-test-http",
		Profile:    profile,
		Table:      table,
	}
	body, err := json.Marshal(entry)
	if err != nil {
		t.Fatal(err)
	}

	resp, raw, _ := postRaw(t, ts.URL+"/v1/results", string(body))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("ingest status = %d: %s", resp.StatusCode, raw)
	}
	got, ok := cache.Get(entry.Key)
	if !ok || got.Table.Get("r", "c") != 42 {
		t.Fatalf("ingested entry not in cache: ok=%v got=%+v", ok, got)
	}
	// And it is servable over the read path.
	var fetched results.Entry
	if r := getJSON(t, ts.URL+"/v1/results/"+entry.Key, &fetched); r.StatusCode != http.StatusOK {
		t.Errorf("fetch after ingest = %d", r.StatusCode)
	}

	// A key that does not match the entry's content is rejected: the
	// cache is content-addressed and a forged key would poison lookups.
	forged := entry
	forged.Key = strings.Repeat("ab", 32)
	body, _ = json.Marshal(forged)
	if resp, _, _ := postRaw(t, ts.URL+"/v1/results", string(body)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("forged-key ingest status = %d, want 400", resp.StatusCode)
	}
	if _, ok := cache.Get(forged.Key); ok {
		t.Error("forged key was stored")
	}

	// No table, and not-JSON, are client errors.
	noTable := entry
	noTable.Table = nil
	body, _ = json.Marshal(noTable)
	if resp, _, _ := postRaw(t, ts.URL+"/v1/results", string(body)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("tableless ingest status = %d, want 400", resp.StatusCode)
	}
	if resp, _, _ := postRaw(t, ts.URL+"/v1/results", `not json`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-JSON ingest status = %d, want 400", resp.StatusCode)
	}
}
