package loadgen

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/daemon"
)

// The e2e tests register instant synthetic experiments so the load
// they generate is dominated by the serving path, not the simulations.
var registerOnce sync.Once

func lgExperiments() []string {
	ids := make([]string, 8)
	registerOnce.Do(func() {
		for i := range ids {
			id := fmt.Sprintf("zz-lg-%d", i)
			core.Register(&core.Experiment{
				ID: id, Title: "loadgen fake " + id, Paper: "n/a",
				Run: func(context.Context, core.Profile) (*core.Table, error) {
					t := core.NewTable("fake", "virtual s", []string{"r"}, []string{"c"})
					t.Set("r", "c", 1)
					return t, nil
				},
				Check: func(*core.Table) error { return nil },
			})
		}
	})
	for i := range ids {
		ids[i] = fmt.Sprintf("zz-lg-%d", i)
	}
	return ids
}

func runOnFreshDaemon(t *testing.T, cfg Config) *Summary {
	t.Helper()
	d, err := daemon.StartLocal(daemon.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// Run must not leave connections open: one dialed but never
		// used holds http.Server.Shutdown for its full 5 s grace.
		t0 := time.Now()
		d.Stop()
		if dt := time.Since(t0); dt > 2*time.Second {
			t.Errorf("daemon Stop took %s: Run left connections open", dt)
		}
	})
	cfg.BaseURL = d.BaseURL
	sum, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func baseConfig() Config {
	return Config{
		Agents:      8,
		Requests:    40,
		Seed:        7,
		ZipfS:       1.01,
		Experiments: nil, // filled per test
		Profile:     "quick",
	}
}

// With a fixed seed and per-agent request counts, two runs against
// fresh daemons must agree exactly on every per-class request count
// and on the daemon's reuse accounting: reuse_hits = submitted −
// executed (no failures), and executed = distinct keys drawn — all
// pure functions of the seed even though the dedup/cache-hit split
// inside reuse_hits is timing-dependent.
func TestDeterministicSeedExactCounts(t *testing.T) {
	cfg := baseConfig()
	cfg.Experiments = lgExperiments()

	a := runOnFreshDaemon(t, cfg)
	b := runOnFreshDaemon(t, cfg)

	if a.TotalRequests != int64(cfg.Agents*cfg.Requests) {
		t.Errorf("total requests = %d, want %d", a.TotalRequests, cfg.Agents*cfg.Requests)
	}
	for _, c := range []string{ClassSubmit, ClassResult, ClassJobPoll, ClassSweepPoll} {
		ca, cb := a.Classes[c], b.Classes[c]
		if ca.Requests != cb.Requests {
			t.Errorf("class %s: run A made %d requests, run B %d — seed not deterministic", c, ca.Requests, cb.Requests)
		}
		if ca.Errors5xx != 0 || cb.Errors5xx != 0 {
			t.Errorf("class %s: 5xx responses (A=%d B=%d), want none", c, ca.Errors5xx, cb.Errors5xx)
		}
		if ca.TransportErrors != 0 || cb.TransportErrors != 0 {
			t.Errorf("class %s: transport errors (A=%d B=%d), want none", c, ca.TransportErrors, cb.TransportErrors)
		}
	}
	// Executed (distinct keys drawn) and ReuseHits (attempts − executed)
	// are the exact invariants; Submitted alone is timing-dependent
	// because a dedup-coalesced attempt lands in Deduped instead.
	if a.Daemon.Executed != b.Daemon.Executed || a.Daemon.ReuseHits != b.Daemon.ReuseHits {
		t.Errorf("daemon accounting diverged:\nA: %+v\nB: %+v", a.Daemon, b.Daemon)
	}
	if a.Daemon.Failed != 0 {
		t.Errorf("daemon reported %d failed jobs, want 0", a.Daemon.Failed)
	}
	posts := a.Classes[ClassSubmit].Requests
	if got := a.Daemon.Submitted + a.Daemon.Deduped; got != posts {
		t.Errorf("daemon saw %d submission attempts, loadgen sent %d", got, posts)
	}
	if got, want := a.Daemon.ReuseHits, posts-a.Daemon.Executed; got != want {
		t.Errorf("reuse_hits = %d, want attempts−executed = %d", got, want)
	}
}

// Hot-key skew must show up in the daemon's reuse accounting: a
// sharply Zipfian workload concentrates submissions on few distinct
// keys, so fewer executions and more dedup/cache reuse than a
// near-uniform workload of the same size.
func TestHotSkewIncreasesReuse(t *testing.T) {
	cold := baseConfig()
	cold.Experiments = lgExperiments()
	hot := cold
	hot.ZipfS = 3.0

	cs := runOnFreshDaemon(t, cold)
	hs := runOnFreshDaemon(t, hot)

	if hs.Daemon.Executed >= cs.Daemon.Executed {
		t.Errorf("hot skew executed %d distinct keys, cold %d — skew had no effect",
			hs.Daemon.Executed, cs.Daemon.Executed)
	}
	if hs.Daemon.ReuseRatio <= cs.Daemon.ReuseRatio {
		t.Errorf("hot reuse ratio %.3f not above cold %.3f",
			hs.Daemon.ReuseRatio, cs.Daemon.ReuseRatio)
	}
}

// Timed mode is the operator-facing smoke: it must complete, stay
// 5xx-free, and produce a well-formed summary file.
func TestTimedRunAndSummaryFile(t *testing.T) {
	cfg := baseConfig()
	cfg.Experiments = lgExperiments()
	cfg.Requests = 0
	cfg.Duration = 300 * time.Millisecond
	cfg.Agents = 4

	sum := runOnFreshDaemon(t, cfg)
	if sum.TotalRequests == 0 {
		t.Fatal("timed run made no requests")
	}
	for c, cs := range sum.Classes {
		if cs.Errors5xx != 0 {
			t.Errorf("class %s: %d 5xx responses", c, cs.Errors5xx)
		}
	}
	out := filepath.Join(t.TempDir(), "sub", "summary.json")
	if err := WriteSummary(out, sum); err != nil {
		t.Fatal(err)
	}
	if sum.Render() == "" {
		t.Error("empty render")
	}
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("4/3/2/1")
	if err != nil || m != DefaultMix() {
		t.Fatalf("ParseMix(4/3/2/1) = %+v, %v", m, err)
	}
	if m.String() != "4/3/2/1" {
		t.Errorf("round trip: %s", m.String())
	}
	m, err = ParseMix("4/3/2/1/5")
	if err != nil || m.FedPoll != 5 {
		t.Fatalf("ParseMix(4/3/2/1/5) = %+v, %v", m, err)
	}
	if m.String() != "4/3/2/1/5" {
		t.Errorf("5-weight round trip: %s", m.String())
	}
	for _, bad := range []string{"", "1/2/3", "1/2/3/4/5/6", "1/2/3/x", "-1/2/3/4", "0/0/0/0", "0/0/0/0/0"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}

// The fedpoll class polls a federation coordinator, not the worker
// daemon, and requires a coordinator URL up front.
func TestFedPollClass(t *testing.T) {
	var polls atomic.Int64
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || r.URL.Path != "/v1/sweeps/sw-feedfeedfeed" {
			t.Errorf("coordinator saw %s %s", r.Method, r.URL.Path)
		}
		polls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"id":"sw-feedfeedfeed","total":4,"done":4}`)
	}))
	defer coord.Close()

	cfg := baseConfig()
	cfg.Experiments = lgExperiments()
	cfg.Requests = 20
	cfg.Agents = 4
	cfg.Mix = Mix{Submit: 1, Result: 1, JobPoll: 1, SweepPoll: 1, FedPoll: 4}
	cfg.FedURL = coord.URL
	cfg.FedSweepID = "sw-feedfeedfeed"

	sum := runOnFreshDaemon(t, cfg)
	fp := sum.Classes[ClassFedPoll]
	if fp == nil || fp.Requests == 0 {
		t.Fatalf("fedpoll class made no requests: %+v", sum.Classes)
	}
	if fp.Requests != polls.Load() {
		t.Errorf("loadgen counted %d fedpolls, coordinator saw %d", fp.Requests, polls.Load())
	}
	if fp.Errors5xx != 0 || fp.TransportErrors != 0 {
		t.Errorf("fedpoll errors: 5xx=%d transport=%d", fp.Errors5xx, fp.TransportErrors)
	}
	if sum.Mix != "1/1/1/1/4" {
		t.Errorf("summary mix = %q, want 1/1/1/1/4", sum.Mix)
	}

	// Without a coordinator URL the weighted mix is rejected up front.
	cfg.FedURL = ""
	if _, err := Run(context.Background(), Config{
		BaseURL: "http://127.0.0.1:1", Agents: 1, Requests: 1,
		Experiments: lgExperiments(), Mix: cfg.Mix,
	}); err == nil {
		t.Error("FedPoll weight without FedURL accepted")
	}
}
