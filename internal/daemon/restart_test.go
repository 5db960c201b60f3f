package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/runner"
	"imagebench/internal/sweep"
)

// The restart test registers its own experiments ("zz-rs-*"): five fast
// ones and one that blocks on a gate, so a sweep can be frozen
// mid-flight with some cells completed and some not. A shared "crashed"
// flag makes every fake fail instantly while the first daemon is being
// torn down, which is how a kill looks to the Journal: accepted
// submissions with no completion.

var (
	rsRegister sync.Once
	rsCrashed  atomic.Bool
	rsRuns     sync.Map // experiment ID -> *atomic.Int64 successful runs

	rsGateMu sync.Mutex
	rsGate   chan struct{} // nil = the gate experiment does not block
)

func rsSetGate(g chan struct{}) {
	rsGateMu.Lock()
	rsGate = g
	rsGateMu.Unlock()
}

func rsIDs() []string {
	return []string{"zz-rs-a", "zz-rs-b", "zz-rs-cgate", "zz-rs-d", "zz-rs-e", "zz-rs-f"}
}

func rsRunCount(id string) int64 {
	c, _ := rsRuns.Load(id)
	return c.(*atomic.Int64).Load()
}

func rsRegisterFakes() {
	rsRegister.Do(func() {
		for _, id := range rsIDs() {
			id := id
			counter := &atomic.Int64{}
			rsRuns.Store(id, counter)
			core.Register(&core.Experiment{
				ID: id, Title: "restart fake " + id, Paper: "n/a",
				Run: func(context.Context, core.Profile) (*core.Table, error) {
					if rsCrashed.Load() {
						return nil, errors.New("simulated crash")
					}
					if id == "zz-rs-cgate" {
						rsGateMu.Lock()
						g := rsGate
						rsGateMu.Unlock()
						if g != nil {
							<-g
						}
						if rsCrashed.Load() {
							return nil, errors.New("simulated crash")
						}
					}
					counter.Add(1)
					t := core.NewTable("restart", "virtual s", []string{"r"}, []string{"c"})
					t.Set("r", "c", 1)
					return t, nil
				},
				Check: func(*core.Table) error { return nil },
			})
		}
	})
}

func rsGetSweep(t *testing.T, url, id string) sweep.Info {
	t.Helper()
	var info sweep.Info
	resp, err := http.Get(url + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/sweeps/%s = %d", id, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// TestDaemonRestartMidSweep is the end-to-end acceptance test: a sweep
// is submitted over HTTP, the daemon is killed mid-sweep and restarted
// against the same cache/journal/sweep dirs, and the restarted daemon
// serves every completed cell from the journal+cache without
// re-executing any of them while finishing the rest.
func TestDaemonRestartMidSweep(t *testing.T) {
	rsRegisterFakes()
	rsRuns.Range(func(_, c any) bool { c.(*atomic.Int64).Store(0); return true })
	dir := t.TempDir()
	cfg := Config{
		Workers:  1, // serial: cells complete in deterministic order up to the gate
		CacheDir: filepath.Join(dir, "cache"),
		Journal:  filepath.Join(dir, "journal.jsonl"),
		SweepDir: filepath.Join(dir, "sweeps"),
	}

	// --- Phase 1: submit the sweep, let two cells finish, crash. ---
	rsCrashed.Store(false)
	gate := make(chan struct{})
	rsSetGate(gate)
	defer rsSetGate(nil)

	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(d1.Handler)

	body := `{"experiments":["zz-rs-*"]}`
	resp, err := http.Post(ts1.URL+"/v1/sweeps", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	var submitted sweep.Info
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || submitted.Total != 6 {
		t.Fatalf("sweep submit = %d, %+v; want 202 with 6 cells", resp.StatusCode, submitted)
	}

	// Cells run in sorted order (a, b, cgate, ...) on the single worker;
	// wait until a and b are done and the gate cell holds the worker.
	deadline := time.Now().Add(30 * time.Second)
	for {
		info := rsGetSweep(t, ts1.URL, submitted.ID)
		if info.Done == 2 && info.Running == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never reached mid-flight state: %+v", info)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Crash: every fake now fails instantly, the gate is released into
	// the failure, and the daemon is torn down. The journal is left with
	// the two completions and four submissions that never finished.
	rsCrashed.Store(true)
	close(gate)
	ts1.Close()
	d1.Close()

	for _, id := range []string{"zz-rs-a", "zz-rs-b"} {
		if got := rsRunCount(id); got != 1 {
			t.Fatalf("%s ran %d times before crash, want 1", id, got)
		}
	}

	// --- Phase 2: restart on the same dirs. ---
	rsCrashed.Store(false)
	rsSetGate(nil)
	d2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	ts2 := httptest.NewServer(d2.Handler)
	defer ts2.Close()

	if d2.RecoveredSweeps != 1 {
		t.Errorf("recovered %d sweeps, want 1 (warnings: %v)", d2.RecoveredSweeps, d2.Warnings)
	}
	if d2.RecoveredJobs != 4 {
		t.Errorf("recovered %d pending jobs, want 4 (cgate, d, e, f)", d2.RecoveredJobs)
	}
	if len(d2.Warnings) > 0 {
		t.Errorf("recovery warnings: %v", d2.Warnings)
	}

	// The sweep is immediately addressable and finishes without help.
	var final sweep.Info
	for {
		final = rsGetSweep(t, ts2.URL, submitted.ID)
		if final.Finished() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered sweep never finished: %+v", final)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if final.Done != 6 || final.Failed != 0 {
		t.Fatalf("recovered sweep = %+v, want 6/6 done", final)
	}

	// No completed cell was re-executed; every pending cell ran exactly once.
	for _, id := range rsIDs() {
		if got := rsRunCount(id); got != 1 {
			t.Errorf("%s executed %d times across both processes, want exactly 1", id, got)
		}
	}

	// Completed-before-crash cells are marked cache-served, and their
	// tables are readable through the restarted daemon.
	byExp := map[string]sweep.CellInfo{}
	for _, c := range final.Cells {
		byExp[c.Experiment] = c
	}
	for _, id := range []string{"zz-rs-a", "zz-rs-b"} {
		c := byExp[id]
		if c.Status != runner.StatusDone || !c.CacheHit {
			t.Errorf("pre-crash cell %s = %+v, want done via cache", id, c)
		}
		r, err := http.Get(ts2.URL + "/v1/results/" + c.Key)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("result fetch for %s = %d", id, r.StatusCode)
		}
	}

	// The restarted process executed only the four unfinished cells.
	var m map[string]float64
	mresp, err := http.Get(ts2.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if m["jobs_executed"] != 4 {
		t.Errorf("restarted daemon executed %v jobs, want 4", m["jobs_executed"])
	}
}

// TestStartsOverAGridThatNoLongerExpands: a sweep directory holding a
// spec persisted under an ID its grid no longer hashes to, as every
// sweep written by a binary with other result keys does, does not keep
// the daemon from starting; the mismatch is a warning, and the valid
// spec beside it is adopted.
func TestStartsOverAGridThatNoLongerExpands(t *testing.T) {
	registerFakes()
	dir := t.TempDir()
	persist := func(id string, spec sweep.Spec) {
		t.Helper()
		b, err := json.Marshal(map[string]any{"id": id, "created": time.Now(), "spec": spec})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, id+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	grid := func(spec sweep.Spec) string {
		t.Helper()
		cells, err := sweep.Expand(spec)
		if err != nil {
			t.Fatal(err)
		}
		return sweep.GridID(cells)
	}
	valid, stale := sweep.Spec{Experiments: []string{"zz-test-http"}}, sweep.Spec{Experiments: []string{"zz-test-conc"}}
	const staleID = "sw-000000000000"
	persist(grid(valid), valid)
	persist(staleID, stale)

	d, err := New(Config{Workers: 1, SweepDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	want := fmt.Sprintf("grid now expands to %s, persisted as %s", grid(stale), staleID)
	if len(d.Warnings) != 1 || !strings.Contains(d.Warnings[0], want) {
		t.Errorf("warnings = %q, want one reporting %q", d.Warnings, want)
	}
	if d.RecoveredSweeps != 1 {
		t.Fatalf("recovered %d sweeps, want the valid one", d.RecoveredSweeps)
	}
	s, ok := d.Sweeps.Get(grid(valid))
	if !ok {
		t.Fatal("the valid sweep was not adopted")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}
