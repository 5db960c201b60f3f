package fed

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/daemon"
	"imagebench/internal/obs"
	"imagebench/internal/runner"
	"imagebench/internal/sweep"
)

var registerFedOnce sync.Once

// registerFedFakes registers six fast deterministic experiments: the
// result depends only on the derived profile, so any worker (or a
// single-node run) computes byte-identical tables for the same cell.
func registerFedFakes() {
	registerFedOnce.Do(func() {
		for _, id := range []string{"zz-fed-a", "zz-fed-b", "zz-fed-c", "zz-fed-d", "zz-fed-e", "zz-fed-f"} {
			id := id
			core.Register(&core.Experiment{
				ID: id, Title: "fake fed " + id, Paper: "n/a",
				Run: func(ctx context.Context, p core.Profile) (*core.Table, error) {
					time.Sleep(5 * time.Millisecond) // long enough to kill a worker mid-sweep
					t := core.NewTable("fed "+id, "virtual s", []string{"r"}, []string{"c"})
					t.Set("r", "c", float64(p.ClusterNodes[0]))
					return t, nil
				},
				Check: func(*core.Table) error { return nil },
			})
		}
	})
}

// startWorkers boots n in-process worker daemons.
func startWorkers(t *testing.T, n int) []*daemon.Local {
	t.Helper()
	registerFedFakes()
	workers := make([]*daemon.Local, n)
	for i := range workers {
		w, err := daemon.StartLocal(daemon.Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
		t.Cleanup(w.Stop)
	}
	return workers
}

func workerURLs(workers []*daemon.Local) []string {
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.BaseURL
	}
	return urls
}

// nodeOverrides builds n single-point ClusterNodes override axes.
func nodeOverrides(n int) []core.Overrides {
	out := make([]core.Overrides, n)
	for i := range out {
		out[i] = core.Overrides{ClusterNodes: []int{i + 1}}
	}
	return out
}

// singleNodeCanonical runs the same spec through an in-process sweep
// manager (no federation) and returns the canonical artifact bytes.
func singleNodeCanonical(t *testing.T, spec sweep.Spec) []byte {
	t.Helper()
	d, err := daemon.New(daemon.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s, _, err := d.Sweeps.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = sweep.WriteCanonicalArtifact(&buf, s.ID, spec, s.Cells, func(c *sweep.Cell) *core.Table {
		tab, _ := s.Result(c, d.Cache)
		return tab
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJournalRoundTripAndDoneKeys replays a journal in the format older
// builds wrote, with the assign, steal, fail and worker-down lines the
// coordinator no longer writes: every line parses, and only the current
// sweep's done records retire keys.
func TestJournalRoundTripAndDoneKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "assign.jsonl")
	lines := `{"time":"2026-01-02T03:04:05Z","op":"spec","sweep":"sw-aaa","spec":{"experiments":["zz-fed-a"]}}
{"time":"2026-01-02T03:04:05Z","op":"assign","key":"k1","worker":"w1"}
{"time":"2026-01-02T03:04:05Z","op":"assign","key":"k2","worker":"w2"}
{"time":"2026-01-02T03:04:06Z","op":"steal","key":"k2","worker":"w1","from":"w2"}
{"time":"2026-01-02T03:04:06Z","op":"done","key":"k1","worker":"w1"}
{"time":"2026-01-02T03:04:07Z","op":"fail","key":"k2","worker":"w1","error":"boom"}
{"time":"2026-01-02T03:04:07Z","op":"worker-down","worker":"w2"}
{"time":"2026-01-02T03:04:08Z","op":"spec","sweep":"sw-bbb","spec":{"experiments":["zz-fed-b"]}}
{"time":"2026-01-02T03:04:08Z","op":"done","key":"k3","worker":"w1"}
`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	wantOps := []Op{OpSpec, OpAssign, OpAssign, "steal", OpDone, "fail", "worker-down", OpSpec, OpDone}
	if len(got) != len(wantOps) {
		t.Fatalf("read %d records, want %d", len(got), len(wantOps))
	}
	for i, r := range got {
		if r.Op != wantOps[i] || r.Time == "" {
			t.Errorf("record %d = %+v, want op %q", i, r, wantOps[i])
		}
	}
	if got[0].Spec == nil || got[0].Spec.Experiments[0] != "zz-fed-a" {
		t.Errorf("spec record lost its spec: %+v", got[0])
	}
	// k1 is done; k2 failed (stays pending, retried on restart); k3 is
	// another sweep's.
	if done := DoneKeys(got, "sw-aaa"); !done["k1"] || len(done) != 1 {
		t.Errorf("DoneKeys(sw-aaa) = %v, want only k1", done)
	}
	if done := DoneKeys(got, "sw-bbb"); !done["k3"] || len(done) != 1 {
		t.Errorf("DoneKeys(sw-bbb) = %v, want only k3", done)
	}
	if done := DoneKeys(got, "sw-ccc"); len(done) != 0 {
		t.Errorf("DoneKeys for a sweep the journal never opened = %v, want empty", done)
	}
}

// checkJournal asserts that the journal at path holds exactly one spec
// record and then one done record per cell of res, and nothing else.
func checkJournal(t *testing.T, path string, res *Result) {
	t.Helper()
	recs, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Op != OpSpec || recs[0].Sweep != res.SweepID {
		t.Fatalf("journal does not open with the sweep's spec record: %d records", len(recs))
	}
	done := make(map[string]int)
	for _, r := range recs[1:] {
		if r.Op != OpDone {
			t.Errorf("journal holds a %q record: %+v", r.Op, r)
		}
		done[r.Key]++
	}
	for _, c := range res.Cells {
		if done[c.Key] != 1 {
			t.Errorf("journal holds %d done records for %s/%s, want 1", done[c.Key], c.Experiment, c.Profile.Name)
		}
	}
	if len(recs) != 1+len(res.Cells) {
		t.Errorf("journal holds %d records, want 1 spec + %d done", len(recs), len(res.Cells))
	}
}

func TestFederatedSweepRunsAllCells(t *testing.T) {
	workers := startWorkers(t, 2)
	reg := obs.NewRegistry()
	fm := obs.NewFedMetrics(reg)
	coord, err := New(Config{Workers: workerURLs(workers), Metrics: fm})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	spec := sweep.Spec{Experiments: []string{"zz-fed-a", "zz-fed-b", "zz-fed-c"}, Overrides: nodeOverrides(2)}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := coord.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("failed cells: %v", res.Failed)
	}
	if len(res.Entries) != 6 {
		t.Fatalf("got %d entries, want 6", len(res.Entries))
	}
	for key, e := range res.Entries {
		if e == nil || e.Table == nil || e.Key != key {
			t.Fatalf("entry %s = %+v", key, e)
		}
	}
	// Replication: every worker serves every key.
	for i, w := range workers {
		if got := len(w.Cache.Keys()); got != 6 {
			t.Errorf("worker %d caches %d keys after replication, want 6", i, got)
		}
	}
	// Per-worker counters on /metrics: all 6 assignments and
	// completions accounted, and replication fanned out.
	var assigned, done, replicated float64
	for _, u := range workerURLs(workers) {
		assigned += fm.Assigned.With(u).Value()
		done += fm.Done.With(u).Value()
		replicated += fm.Replications.With(u).Value()
	}
	if assigned < 6 || done != 6 || replicated != 6 {
		t.Errorf("counters: assigned=%v done=%v replicated=%v, want >=6 / 6 / 6", assigned, done, replicated)
	}
	// The federated artifact matches a single-node run byte for byte.
	var fedArt bytes.Buffer
	if err := res.WriteArtifact(&fedArt); err != nil {
		t.Fatal(err)
	}
	if single := singleNodeCanonical(t, spec); !bytes.Equal(fedArt.Bytes(), single) {
		t.Errorf("federated artifact (%d bytes) differs from single-node artifact (%d bytes)",
			fedArt.Len(), len(single))
	}
}

// TestFederatedSweepCarriesUnsupported: a grid whose systems axis makes
// a per-engine experiment not applicable (fig13 is a Myria tuning study;
// under systems=Spark it is rejected before any simulation runs) must
// end the way a single-node sweep of the same grid does — the cell
// tallied Unsupported, not Failed — because the coordinator serves the
// same GET /v1/sweeps/{id} shape a worker does.
func TestFederatedSweepCarriesUnsupported(t *testing.T) {
	workers := startWorkers(t, 2)
	coord, err := New(Config{Workers: workerURLs(workers)})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	spec := sweep.Spec{
		Experiments: []string{"zz-fed-a", "fig13"},
		Overrides:   []core.Overrides{{Systems: []string{"Spark"}}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := coord.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 || len(res.Unsupported) != 1 || len(res.Entries) != 1 {
		t.Errorf("result: %d entries, failed %v, unsupported %v; want 1 entry, 0 failed, 1 unsupported",
			len(res.Entries), res.Failed, res.Unsupported)
	}
	got, ok := coord.SweepInfo(true)
	if !ok {
		t.Fatal("SweepInfo not available after Run")
	}
	if got.Unsupported != 1 || got.Failed != 0 || got.Done != 1 || !got.Finished() {
		t.Errorf("federated info = %+v, want done 1, unsupported 1, failed 0, finished", got)
	}
	for _, ci := range got.Cells {
		if want := ci.Experiment == "fig13"; ci.Unsupported != want {
			t.Errorf("cell %s: unsupported = %v, want %v", ci.Experiment, ci.Unsupported, want)
		}
	}

	// The same grid on one node.
	d, err := daemon.New(daemon.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s, _, err := d.Sweeps.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	want := s.Info(false)
	if got.ID != want.ID || got.Total != want.Total || got.Done != want.Done ||
		got.Failed != want.Failed || got.Unsupported != want.Unsupported {
		t.Errorf("federated counts %+v differ from single-node counts %+v", got, want)
	}
}

// TestWorkerKeyDriftFailsTheCell: a worker whose job reply names
// another result key than the coordinator derived for the cell, as one
// built with another cost model does, files no table: the cell fails
// with both keys, and the rest of the sweep still finishes.
func TestWorkerKeyDriftFailsTheCell(t *testing.T) {
	registerFedFakes()
	d, err := daemon.New(daemon.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const drifted = "00000000000000000000000000000000000000000000000000000000000000ff"
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		rec := httptest.NewRecorder()
		d.Handler.ServeHTTP(rec, r)
		if r.URL.Path == "/v1/jobs" && bytes.Contains(body, []byte(`"zz-fed-a"`)) {
			var reply map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err == nil {
				for _, j := range reply["jobs"].([]any) {
					j.(map[string]any)["resultKey"] = drifted
				}
				rec.Body.Reset()
				json.NewEncoder(rec.Body).Encode(reply)
			}
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.Header().Del("Content-Length")
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer worker.Close()

	coord, err := New(Config{Workers: []string{worker.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := coord.Run(ctx, sweep.Spec{Experiments: []string{"zz-fed-a", "zz-fed-b"}})
	if err != nil {
		t.Fatal(err)
	}
	var a, b *sweep.Cell
	for _, c := range res.Cells {
		if c.Experiment == "zz-fed-a" {
			a = c
		} else {
			b = c
		}
	}
	want := fmt.Sprintf("worker computed key %.12s, coordinator expected %.12s", drifted, a.Key)
	if len(res.Failed) != 1 || res.Failed[a.Key] != want {
		t.Errorf("failed = %v, want only %.12s: %q", res.Failed, a.Key, want)
	}
	if res.Entries[a.Key] != nil || res.Entries[b.Key] == nil {
		t.Errorf("entries hold %d tables, want only the undrifted cell's", len(res.Entries))
	}
	if info, ok := coord.SweepInfo(false); !ok || !info.Finished() || info.Done != 1 || info.Failed != 1 {
		t.Errorf("federated info = %+v, want finished with 1 done and 1 failed", info)
	}
}

// TestFederationSmokeKillWorker is the acceptance smoke: coordinator +
// 3 in-process workers, a 60-cell sweep, one worker killed (-9 at the
// network layer) mid-flight. The killed worker's cells must migrate to
// the survivors and the combined artifact must be byte-identical to a
// single-node run of the same spec.
func TestFederationSmokeKillWorker(t *testing.T) {
	workers := startWorkers(t, 3)
	reg := obs.NewRegistry()
	fm := obs.NewFedMetrics(reg)
	journal := filepath.Join(t.TempDir(), "assign.jsonl")
	coord, err := New(Config{Workers: workerURLs(workers), Metrics: fm, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// 6 experiments × 10 cluster sizes = 60 cells.
	spec := sweep.Spec{Experiments: []string{"zz-fed-*"}, Overrides: nodeOverrides(10)}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	type outcome struct {
		res *Result
		err error
	}
	runC := make(chan outcome, 1)
	go func() {
		res, err := coord.Run(ctx, spec)
		runC <- outcome{res, err}
	}()

	// Kill worker 0 once the sweep is demonstrably mid-flight: some
	// cells done, many not.
	killed := false
	deadline := time.Now().Add(time.Minute)
	for !killed {
		if time.Now().After(deadline) {
			t.Fatal("sweep never reached mid-flight")
		}
		info, ok := coord.SweepInfo(false)
		if ok && info.Done >= 5 {
			if info.Done > 50 {
				t.Fatalf("sweep nearly finished (done=%d) before the kill; slow the fakes down", info.Done)
			}
			workers[0].Kill()
			killed = true
		}
		time.Sleep(time.Millisecond)
	}

	out := <-runC
	if out.err != nil {
		t.Fatal(out.err)
	}
	if len(out.res.Failed) != 0 {
		t.Fatalf("failed cells after worker kill: %v", out.res.Failed)
	}
	if len(out.res.Entries) != 60 {
		t.Fatalf("got %d entries, want 60", len(out.res.Entries))
	}

	// The kill was observed and the dead worker's cells migrated: the
	// survivors were dispatched more than 2/3 of the grid.
	if v := fm.WorkerFailures.With(workers[0].BaseURL).Value(); v < 1 {
		t.Errorf("worker 0 kill not recorded: failures=%v", v)
	}
	survivors := fm.Assigned.With(workers[1].BaseURL).Value() + fm.Assigned.With(workers[2].BaseURL).Value()
	if survivors <= 40 {
		t.Errorf("survivors were dispatched %v cells total, want > 40", survivors)
	}
	// Every surviving worker can serve every key (replication held up).
	for i, w := range workers[1:] {
		if got := len(w.Cache.Keys()); got != 60 {
			t.Errorf("survivor %d caches %d keys, want 60", i+1, got)
		}
	}

	// Byte-identical to the single-node run.
	var fedArt bytes.Buffer
	if err := out.res.WriteArtifact(&fedArt); err != nil {
		t.Fatal(err)
	}
	single := singleNodeCanonical(t, spec)
	if !bytes.Equal(fedArt.Bytes(), single) {
		t.Fatalf("federated artifact (%d bytes) differs from single-node artifact (%d bytes)",
			fedArt.Len(), len(single))
	}

	// The journal holds what resume reads and nothing else: the kill
	// shows in WorkerFailures above, not here.
	checkJournal(t, journal, out.res)
}

// slowHost delays every request to one host, then forwards it.
type slowHost struct {
	host  string
	delay time.Duration
	next  http.RoundTripper
}

func (s *slowHost) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Host == s.host {
		time.Sleep(s.delay)
	}
	return s.next.RoundTrip(req)
}

// TestSlowWorkerDoesLessOfTheGrid: with every request to worker 0
// taking 30 ms longer, the free slots of worker 1 take the pending
// cells, so worker 1 finishes at least two thirds of the grid. A fixed
// split of the grid gives each worker half.
func TestSlowWorkerDoesLessOfTheGrid(t *testing.T) {
	workers := startWorkers(t, 2)
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	slow := strings.TrimPrefix(workers[0].BaseURL, "http://")
	client := &http.Client{Transport: &slowHost{host: slow, delay: 30 * time.Millisecond, next: tr}}
	fm := obs.NewFedMetrics(obs.NewRegistry())
	coord, err := New(Config{Workers: workerURLs(workers), Metrics: fm, Client: client})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	spec := sweep.Spec{Experiments: []string{"zz-fed-*"}, Overrides: nodeOverrides(6)} // 36 cells
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := coord.Run(ctx, spec)
	if err != nil || len(res.Failed) != 0 {
		t.Fatalf("run: err=%v failed=%v", err, res.Failed)
	}
	d0, d1 := fm.Done.With(workers[0].BaseURL).Value(), fm.Done.With(workers[1].BaseURL).Value()
	t.Logf("done: slow worker %v, fast worker %v", d0, d1)
	if d0+d1 != 36 || d1 < 2*(d0+d1)/3 {
		t.Errorf("done: slow worker %v, fast worker %v; want the fast one at >= 2/3 of 36", d0, d1)
	}
}

// TestEveryWorkerDies: all workers killed mid-sweep. Run still returns,
// and every cell is accounted for: finished before the kill, or failed
// with "no live workers".
func TestEveryWorkerDies(t *testing.T) {
	workers := startWorkers(t, 2)
	coord, err := New(Config{Workers: workerURLs(workers)})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	spec := sweep.Spec{Experiments: []string{"zz-fed-*"}, Overrides: nodeOverrides(10)} // 60 cells
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	type outcome struct {
		res *Result
		err error
	}
	runC := make(chan outcome, 1)
	go func() {
		res, err := coord.Run(ctx, spec)
		runC <- outcome{res, err}
	}()
	for {
		if info, ok := coord.SweepInfo(false); ok && info.Done >= 5 {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("sweep never reached mid-flight")
		}
		time.Sleep(time.Millisecond)
	}
	for _, w := range workers {
		w.Kill()
	}
	out := <-runC
	if out.err != nil {
		t.Fatalf("Run did not finish before its timeout: %v", out.err)
	}
	for _, c := range out.res.Cells {
		_, done := out.res.Entries[c.Key]
		msg, failed := out.res.Failed[c.Key]
		switch {
		case done == failed:
			t.Errorf("cell %s/%s: done %v, failed %v; want exactly one", c.Experiment, c.Profile.Name, done, failed)
		case failed && msg != "no live workers":
			t.Errorf("cell %s/%s failed with %q, want \"no live workers\"", c.Experiment, c.Profile.Name, msg)
		}
	}
	if len(out.res.Failed) == 0 {
		t.Error("no cell failed: the workers died after the sweep finished")
	}
}

// TestCoordinatorResume proves journal-backed exactly-once: a second
// coordinator over the same journal re-runs nothing — every cell is
// satisfied from the journal's done set and the workers' caches.
func TestCoordinatorResume(t *testing.T) {
	workers := startWorkers(t, 2)
	journal := filepath.Join(t.TempDir(), "assign.jsonl")
	spec := sweep.Spec{Experiments: []string{"zz-fed-a", "zz-fed-b"}, Overrides: nodeOverrides(3)}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	first, err := New(Config{Workers: workerURLs(workers), JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	res, err := first.Run(ctx, spec)
	first.Close()
	if err != nil || len(res.Failed) != 0 {
		t.Fatalf("first run: err=%v failed=%v", err, res.Failed)
	}
	// Every record the coordinator wrote carries its time.
	recs, err := ReadJournal(journal)
	if err != nil || len(recs) == 0 {
		t.Fatalf("journal after the first run: %d records, %v", len(recs), err)
	}
	for _, r := range recs {
		if _, err := time.Parse(time.RFC3339Nano, r.Time); err != nil {
			t.Errorf("record %+v has no time: %v", r, err)
		}
	}

	// Worker-side execution counts before the resume.
	before := make([]int64, len(workers))
	for i, w := range workers {
		before[i] = w.Sched.Stats().Submitted
	}

	second, err := New(Config{Workers: workerURLs(workers), JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	res2, err := second.Run(ctx, spec)
	if err != nil || len(res2.Failed) != 0 {
		t.Fatalf("resumed run: err=%v failed=%v", err, res2.Failed)
	}
	if len(res2.Entries) != 6 {
		t.Fatalf("resumed run returned %d entries, want 6", len(res2.Entries))
	}
	info, ok := second.SweepInfo(false)
	if !ok || info.Hits != 6 || info.Done != 6 {
		t.Errorf("resumed sweep info = %+v, want all 6 cells as journal/cache hits", info)
	}
	for i, w := range workers {
		if got := w.Sched.Stats().Submitted; got != before[i] {
			t.Errorf("worker %d executed %d new jobs during resume, want 0", i, got-before[i])
		}
	}
}

// TestServeHandler drives the coordinator's -serve surface: the same
// GET /v1/sweeps/{id} shape a worker daemon exposes.
func TestServeHandler(t *testing.T) {
	workers := startWorkers(t, 2)
	reg := obs.NewRegistry()
	fm := obs.NewFedMetrics(reg)
	coord, err := New(Config{Workers: workerURLs(workers), Metrics: fm})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ts := httptest.NewServer(coord.Handler(reg))
	defer ts.Close()

	// Before any sweep: list is empty, get is 404.
	resp, err := http.Get(ts.URL + "/v1/sweeps/sw-000000000000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep = %d, want 404", resp.StatusCode)
	}

	spec := sweep.Spec{Experiments: []string{"zz-fed-a"}, Overrides: nodeOverrides(2)}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := coord.Run(ctx, spec)
	if err != nil || len(res.Failed) != 0 {
		t.Fatalf("run: err=%v failed=%v", err, res.Failed)
	}

	var info sweep.Info
	resp, err = http.Get(ts.URL + "/v1/sweeps/" + res.SweepID)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep fetch = %d", resp.StatusCode)
	}
	if info.ID != res.SweepID || info.Total != 2 || info.Done != 2 || !info.Finished() {
		t.Errorf("served info = %+v, want 2/2 done", info)
	}
	if len(info.Cells) != 2 || info.Cells[0].Status != runner.StatusDone {
		t.Errorf("served cells = %+v", info.Cells)
	}

	// /metrics exposes the per-worker federation counters.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := copyBody(&sb, resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "imagebench_fed_cells_done_total") {
		t.Error("metrics output missing imagebench_fed_cells_done_total")
	}
}

func copyBody(sb *strings.Builder, resp *http.Response) (int64, error) {
	defer resp.Body.Close()
	buf := make([]byte, 64<<10)
	var n int64
	for {
		k, err := resp.Body.Read(buf)
		sb.Write(buf[:k])
		n += int64(k)
		if err != nil {
			if err.Error() == "EOF" {
				return n, nil
			}
			return n, err
		}
	}
}
