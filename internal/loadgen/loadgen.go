// Package loadgen drives a running imagebench daemon with a
// configurable mix of API traffic and reports throughput and latency
// quantiles per request class. It is the serving-path counterpart of
// the simulation benchmarks: the experiments themselves are modelled,
// but the daemon's queueing, deduplication, caching, and HTTP handling
// are real code with real concurrency, and this harness is what puts
// them under enough pressure to regress visibly.
//
// Experiment selection is Zipf-distributed, so a hot-key workload
// hammers a few (experiment, profile) pairs — exercising the
// single-flight dedup and the result cache — while a near-uniform
// workload spreads across the registry. With a fixed seed and a fixed
// per-agent request count, each agent's draw sequence is a pure
// function of the seed, which makes request counts and the daemon's
// reuse accounting exactly reproducible on a fresh daemon; the bench
// serve/... cases gate on that.
package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/fsatomic"
	"imagebench/internal/obs"
	"imagebench/internal/results"
)

// The request classes, in report order. Submits create work; the read
// classes model dashboards and pollers riding on the same daemon (or,
// for fedpoll, on a federation coordinator).
const (
	ClassSubmit    = "submit"    // POST /v1/jobs
	ClassResult    = "result"    // GET /v1/results/{key}
	ClassJobPoll   = "jobpoll"   // GET /v1/jobs/{id} (or the job list)
	ClassSweepPoll = "sweeppoll" // GET /v1/sweeps
	ClassFedPoll   = "fedpoll"   // GET {FedURL}/v1/sweeps/{id} on a coordinator
)

var classes = []string{ClassSubmit, ClassResult, ClassJobPoll, ClassSweepPoll, ClassFedPoll}

// Mix weights the request classes. Zero-valued weights drop the class.
// FedPoll defaults to zero everywhere (including DefaultMix), and a
// zero weight adds no rng draws, so existing seeded runs keep their
// exact request sequences.
type Mix struct {
	Submit    int `json:"submit"`
	Result    int `json:"result"`
	JobPoll   int `json:"jobpoll"`
	SweepPoll int `json:"sweeppoll"`
	FedPoll   int `json:"fedpoll,omitempty"`
}

// DefaultMix is submit-heavy but read-dominated in aggregate, shaped
// like a small fleet of clients each submitting and then watching.
func DefaultMix() Mix { return Mix{Submit: 4, Result: 3, JobPoll: 2, SweepPoll: 1} }

func (m Mix) weights() [5]int {
	return [5]int{m.Submit, m.Result, m.JobPoll, m.SweepPoll, m.FedPoll}
}

func (m Mix) total() int { return m.Submit + m.Result + m.JobPoll + m.SweepPoll + m.FedPoll }

// String renders the mix as submit/result/jobpoll/sweeppoll weights,
// with a fifth fedpoll weight only when one is set — so summaries from
// non-federated runs are unchanged.
func (m Mix) String() string {
	if m.FedPoll > 0 {
		return fmt.Sprintf("%d/%d/%d/%d/%d", m.Submit, m.Result, m.JobPoll, m.SweepPoll, m.FedPoll)
	}
	return fmt.Sprintf("%d/%d/%d/%d", m.Submit, m.Result, m.JobPoll, m.SweepPoll)
}

// ParseMix parses "4/3/2/1" (submit/result/jobpoll/sweeppoll) or
// "4/3/2/1/2" with a fifth fedpoll weight.
func ParseMix(s string) (Mix, error) {
	var m Mix
	parts := strings.Split(s, "/")
	if len(parts) != 4 && len(parts) != 5 {
		return m, fmt.Errorf("mix %q: want 4 or 5 weights submit/result/jobpoll/sweeppoll[/fedpoll]", s)
	}
	fields := []*int{&m.Submit, &m.Result, &m.JobPoll, &m.SweepPoll, &m.FedPoll}
	fields = fields[:len(parts)]
	for i, p := range parts {
		if _, err := fmt.Sscanf(p, "%d", fields[i]); err != nil || *fields[i] < 0 {
			return m, fmt.Errorf("mix %q: bad weight %q", s, p)
		}
	}
	if m.total() == 0 {
		return m, fmt.Errorf("mix %q: all weights are zero", s)
	}
	return m, nil
}

// Config parameterises one load run.
type Config struct {
	// BaseURL of the daemon, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Agents is the number of concurrent client goroutines.
	Agents int
	// Requests per agent. When set, the run is closed-loop and exactly
	// Agents*Requests requests fire — the deterministic mode the bench
	// gates use. Mutually exclusive with Duration.
	Requests int
	// Duration bounds an open-ended run: agents fire until it elapses.
	Duration time.Duration
	// Seed fixes every agent's draw sequence (agent i uses Seed+i).
	Seed int64
	// ZipfS is the Zipf skew exponent, > 1. Near 1 (say 1.01) is close
	// to uniform over the experiment list; 1.5 and up concentrates the
	// mass on a few hot keys, which is what stresses dedup + cache.
	ZipfS float64
	// Experiments to draw from, already resolved to concrete IDs.
	Experiments []string
	// Profile name for submissions and result-key derivation.
	Profile string
	// Mix weights the request classes; zero value means DefaultMix.
	Mix Mix
	// FedURL is the federation coordinator's base URL, required when
	// Mix.FedPoll is set; the fedpoll class polls it instead of BaseURL.
	FedURL string
	// FedSweepID targets GET /v1/sweeps/{id} on the coordinator; empty
	// polls the coordinator's sweep list.
	FedSweepID string
	// DrainTimeout bounds the post-run wait for in-flight jobs to
	// settle before the daemon counters are scraped (default 30s).
	DrainTimeout time.Duration
	// Client overrides the HTTP client (tests); nil builds one sized
	// for Agents concurrent connections.
	Client *http.Client
}

// ClassStats aggregates one request class.
type ClassStats struct {
	Requests        int64            `json:"requests"`
	Errors5xx       int64            `json:"errors5xx"`
	TransportErrors int64            `json:"transportErrors"`
	StatusCounts    map[string]int64 `json:"statusCounts"`
	TPS             float64          `json:"tps"`
	MeanMs          float64          `json:"meanMs"`
	P50Ms           float64          `json:"p50Ms"`
	P95Ms           float64          `json:"p95Ms"`
	P99Ms           float64          `json:"p99Ms"`
}

// DaemonStats is the daemon's own accounting, scraped from
// /metrics.json after the run drains. On a fresh daemon these cover
// exactly this run's traffic; against a long-lived daemon they are
// lifetime counters and only the deltas would be attributable.
type DaemonStats struct {
	// Submitted is the scheduler's count of jobs it created; a
	// submission coalesced onto an identical in-flight job counts in
	// Deduped instead, so Submitted+Deduped is the total attempts.
	Submitted int64 `json:"submitted"`
	Executed  int64 `json:"executed"`
	Failed    int64 `json:"failed"`
	Deduped   int64 `json:"deduped"`
	CacheHits int64 `json:"cacheHits"`
	// ReuseHits = Deduped + CacheHits: submissions answered without a
	// fresh execution. The dedup/cache split depends on timing, but on
	// a fresh daemon the sum is deterministic for a fixed seed —
	// every key's first submission executes, every other one reuses,
	// so ReuseHits = attempts − Executed − Failed.
	ReuseHits int64 `json:"reuseHits"`
	// ReuseRatio is ReuseHits over total submission attempts.
	ReuseRatio float64 `json:"reuseRatio"`
}

// SummarySchema versions the on-disk summary layout.
const SummarySchema = 1

// Summary is the run report, written via fsatomic as versioned JSON.
type Summary struct {
	Schema      int      `json:"schema"`
	BaseURL     string   `json:"baseURL"`
	Agents      int      `json:"agents"`
	Requests    int      `json:"requestsPerAgent,omitempty"`
	DurationSec float64  `json:"durationSec,omitempty"`
	Seed        int64    `json:"seed"`
	ZipfS       float64  `json:"zipfS"`
	Profile     string   `json:"profile"`
	Mix         string   `json:"mix"`
	Experiments []string `json:"experiments"`

	WallSec       float64                `json:"wallSec"`
	TotalRequests int64                  `json:"totalRequests"`
	TPS           float64                `json:"tps"`
	Classes       map[string]*ClassStats `json:"classes"`
	Daemon        DaemonStats            `json:"daemon"`
}

// agentTallies is one agent's private accounting — no shared counters
// on the hot path, merged once at the end. (Latency observations go to
// the shared sharded histograms, which are contention-free by design.)
type agentTallies struct {
	requests  [5]int64
	errors5xx [5]int64
	transport [5]int64
	status    [5]map[int]int64
}

// Run fires the configured load and returns its summary. Request-level
// failures (non-2xx, transport errors) are counted, not returned;
// errors are reserved for a run that cannot start or cannot drain.
func Run(ctx context.Context, cfg Config) (*Summary, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL is required")
	}
	if cfg.Agents <= 0 {
		cfg.Agents = 8
	}
	if (cfg.Requests <= 0) == (cfg.Duration <= 0) {
		return nil, fmt.Errorf("loadgen: set exactly one of Requests (closed-loop) or Duration (timed)")
	}
	if cfg.ZipfS == 0 {
		cfg.ZipfS = 1.01
	}
	if cfg.ZipfS <= 1 {
		return nil, fmt.Errorf("loadgen: ZipfS must be > 1 (got %v)", cfg.ZipfS)
	}
	if len(cfg.Experiments) == 0 {
		return nil, fmt.Errorf("loadgen: no experiments to draw from")
	}
	if cfg.Profile == "" {
		cfg.Profile = "quick"
	}
	profile, err := core.ProfileByName(cfg.Profile)
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	if cfg.Mix.total() == 0 {
		cfg.Mix = DefaultMix()
	}
	if cfg.Mix.FedPoll > 0 && cfg.FedURL == "" {
		return nil, fmt.Errorf("loadgen: Mix.FedPoll is set but FedURL is empty")
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	client := cfg.Client
	if client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = cfg.Agents
		// Run owns this transport, so it closes what it opened: a
		// keep-alive connection left behind (in particular one dialed
		// but never used) makes the daemon's graceful shutdown wait
		// out http.Server's 5 s grace period for new connections.
		defer tr.CloseIdleConnections()
		client = &http.Client{Transport: tr, Timeout: time.Minute}
	}

	// Result-fetch keys are derived, not discovered: the cache is
	// content-addressed, so a client that knows (experiment, profile)
	// knows the key without a prior submit round-trip.
	keys := make([]string, len(cfg.Experiments))
	for i, id := range cfg.Experiments {
		keys[i] = results.Key(id, profile)
	}

	// One sharded histogram per class; agents observe concurrently
	// without contending (that is the point of the sharding).
	reg := obs.NewRegistry()
	hists := make([]*obs.Histogram, len(classes))
	for i, c := range classes {
		hists[i] = reg.NewHistogram("loadgen_"+c+"_seconds",
			"Request latency for the "+c+" class.", obs.FineLatencyBuckets)
	}

	runCtx := ctx
	if cfg.Duration > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}

	tallies := make([]agentTallies, cfg.Agents)
	start := time.Now()
	var wg sync.WaitGroup
	for a := 0; a < cfg.Agents; a++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			runAgent(runCtx, &cfg, client, keys, hists, &tallies[id], id)
		}(a)
	}
	wg.Wait()
	wall := time.Since(start)

	sum := &Summary{
		Schema:      SummarySchema,
		BaseURL:     cfg.BaseURL,
		Agents:      cfg.Agents,
		Requests:    cfg.Requests,
		DurationSec: cfg.Duration.Seconds(),
		Seed:        cfg.Seed,
		ZipfS:       cfg.ZipfS,
		Profile:     cfg.Profile,
		Mix:         cfg.Mix.String(),
		Experiments: append([]string(nil), cfg.Experiments...),
		WallSec:     wall.Seconds(),
		Classes:     make(map[string]*ClassStats, len(classes)),
	}
	for ci, c := range classes {
		cs := &ClassStats{StatusCounts: map[string]int64{}}
		for a := range tallies {
			cs.Requests += tallies[a].requests[ci]
			cs.Errors5xx += tallies[a].errors5xx[ci]
			cs.TransportErrors += tallies[a].transport[ci]
			for code, n := range tallies[a].status[ci] {
				cs.StatusCounts[fmt.Sprintf("%d", code)] += n
			}
		}
		cs.TPS = float64(cs.Requests) / wall.Seconds()
		// Quantiles over an empty histogram are NaN, which is not
		// marshalable JSON — a class with no traffic reports zeros.
		if cs.Requests > 0 {
			snap := hists[ci].Snapshot()
			cs.MeanMs = 1000 * snap.Mean()
			cs.P50Ms = 1000 * snap.Quantile(0.50)
			cs.P95Ms = 1000 * snap.Quantile(0.95)
			cs.P99Ms = 1000 * snap.Quantile(0.99)
		}
		sum.TotalRequests += cs.Requests
		sum.Classes[c] = cs
	}
	sum.TPS = float64(sum.TotalRequests) / wall.Seconds()

	// Drain before scraping: submits are async, so the daemon's
	// executed/reuse split is only final once nothing is in flight.
	if err := drain(ctx, client, cfg.BaseURL, cfg.DrainTimeout); err != nil {
		return sum, err
	}
	ds, err := scrapeDaemon(ctx, client, cfg.BaseURL)
	if err != nil {
		return sum, err
	}
	sum.Daemon = ds
	return sum, nil
}

// runAgent is one closed-loop client. Every random draw comes from a
// private rand.Rand seeded with Seed+agentID, so in Requests mode the
// full (class, experiment) sequence is reproducible.
func runAgent(ctx context.Context, cfg *Config, client *http.Client,
	keys []string, hists []*obs.Histogram, tal *agentTallies, agentID int) {

	rng := rand.New(rand.NewSource(cfg.Seed + int64(agentID)))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(cfg.Experiments)-1))
	weights := cfg.Mix.weights()
	total := cfg.Mix.total()
	for i := range tal.status {
		tal.status[i] = make(map[int]int64)
	}
	// Recent job IDs this agent created, for the jobpoll class; a
	// fixed-size ring so long runs poll fresh jobs, not just the first 64.
	var ring []string
	ringNext := 0

	for n := 0; cfg.Requests == 0 || n < cfg.Requests; n++ {
		if ctx.Err() != nil {
			return
		}
		// Weighted class pick, then the class-specific draws — all from
		// the agent's rng, in a fixed order per iteration.
		w := rng.Intn(total)
		ci := 0
		for w >= weights[ci] {
			w -= weights[ci]
			ci++
		}
		var (
			method, url string
			body        string
		)
		switch classes[ci] {
		case ClassSubmit:
			exp := cfg.Experiments[zipf.Uint64()]
			method, url = http.MethodPost, cfg.BaseURL+"/v1/jobs"
			body = fmt.Sprintf(`{"experiments":[%q],"profile":%q}`, exp, cfg.Profile)
		case ClassResult:
			method, url = http.MethodGet, cfg.BaseURL+"/v1/results/"+keys[zipf.Uint64()]
		case ClassJobPoll:
			if len(ring) > 0 {
				method, url = http.MethodGet, cfg.BaseURL+"/v1/jobs/"+ring[rng.Intn(len(ring))]
			} else {
				method, url = http.MethodGet, cfg.BaseURL+"/v1/jobs"
			}
		case ClassSweepPoll:
			method, url = http.MethodGet, cfg.BaseURL+"/v1/sweeps"
		case ClassFedPoll:
			if cfg.FedSweepID != "" {
				method, url = http.MethodGet, cfg.FedURL+"/v1/sweeps/"+cfg.FedSweepID
			} else {
				method, url = http.MethodGet, cfg.FedURL+"/v1/sweeps"
			}
		}

		req, err := http.NewRequestWithContext(ctx, method, url, strings.NewReader(body))
		if err != nil {
			tal.transport[ci]++
			continue
		}
		if body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		t0 := time.Now()
		resp, err := client.Do(req)
		hists[ci].Observe(time.Since(t0).Seconds())
		tal.requests[ci]++
		if err != nil {
			// A timed run's deadline tearing down an in-flight request
			// is shutdown, not a daemon failure.
			if ctx.Err() != nil {
				tal.requests[ci]--
				return
			}
			tal.transport[ci]++
			continue
		}
		tal.status[ci][resp.StatusCode]++
		if resp.StatusCode >= 500 {
			tal.errors5xx[ci]++
		}
		if classes[ci] == ClassSubmit && resp.StatusCode < 300 {
			if id := firstJobID(resp.Body); id != "" {
				if len(ring) < 64 {
					ring = append(ring, id)
				} else {
					ring[ringNext] = id
					ringNext = (ringNext + 1) % len(ring)
				}
			}
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// firstJobID pulls jobs[0].id out of a submit response without
// decoding the whole Info.
func firstJobID(r io.Reader) string {
	var out struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
	}
	if err := json.NewDecoder(r).Decode(&out); err != nil || len(out.Jobs) == 0 {
		return ""
	}
	return out.Jobs[0].ID
}

// daemonMetrics mirrors the subset of GET /metrics.json loadgen needs.
type daemonMetrics struct {
	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsExecuted  int64 `json:"jobs_executed"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsDeduped   int64 `json:"jobs_deduped"`
	JobsCacheHits int64 `json:"jobs_cache_hits"`
	JobsInFlight  int   `json:"jobs_in_flight"`
}

func fetchMetrics(ctx context.Context, client *http.Client, baseURL string) (daemonMetrics, error) {
	var m daemonMetrics
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/metrics.json", nil)
	if err != nil {
		return m, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("metrics.json: status %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

func drain(ctx context.Context, client *http.Client, baseURL string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		m, err := fetchMetrics(ctx, client, baseURL)
		if err == nil && m.JobsInFlight == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("loadgen: drain: %w", err)
			}
			return fmt.Errorf("loadgen: drain: %d job(s) still in flight after %s", m.JobsInFlight, timeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func scrapeDaemon(ctx context.Context, client *http.Client, baseURL string) (DaemonStats, error) {
	m, err := fetchMetrics(ctx, client, baseURL)
	if err != nil {
		return DaemonStats{}, fmt.Errorf("loadgen: scrape: %w", err)
	}
	ds := DaemonStats{
		Submitted: m.JobsSubmitted,
		Executed:  m.JobsExecuted,
		Failed:    m.JobsFailed,
		Deduped:   m.JobsDeduped,
		CacheHits: m.JobsCacheHits,
	}
	ds.ReuseHits = ds.Deduped + ds.CacheHits
	if attempts := ds.Submitted + ds.Deduped; attempts > 0 {
		ds.ReuseRatio = float64(ds.ReuseHits) / float64(attempts)
	}
	return ds, nil
}

// WriteSummary writes s as indented JSON via an atomic rename,
// creating the parent directory if needed.
func WriteSummary(path string, s *Summary) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return fsatomic.WriteFile(path, append(data, '\n'))
}

// Render formats the summary as a terminal table.
func (s *Summary) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadgen: %d agents, seed %d, zipf s=%.2f, mix %s, %d experiments, profile %s\n",
		s.Agents, s.Seed, s.ZipfS, s.Mix, len(s.Experiments), s.Profile)
	fmt.Fprintf(&b, "wall %.2fs   total %d req   %.0f req/s\n\n", s.WallSec, s.TotalRequests, s.TPS)
	fmt.Fprintf(&b, "%-10s %9s %9s %9s %9s %9s %6s %7s\n",
		"class", "requests", "tps", "p50(ms)", "p95(ms)", "p99(ms)", "5xx", "neterr")
	for _, c := range classes {
		cs := s.Classes[c]
		if cs == nil || cs.Requests == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-10s %9d %9.0f %9.3f %9.3f %9.3f %6d %7d\n",
			c, cs.Requests, cs.TPS, cs.P50Ms, cs.P95Ms, cs.P99Ms, cs.Errors5xx, cs.TransportErrors)
	}
	d := s.Daemon
	fmt.Fprintf(&b, "\ndaemon: submitted=%d executed=%d deduped=%d cacheHits=%d failed=%d reuse=%.1f%%\n",
		d.Submitted, d.Executed, d.Deduped, d.CacheHits, d.Failed, 100*d.ReuseRatio)
	statuses := s.statusLine()
	if statuses != "" {
		fmt.Fprintf(&b, "status codes: %s\n", statuses)
	}
	return b.String()
}

// statusLine folds all classes' status counts into one sorted line.
func (s *Summary) statusLine() string {
	merged := map[string]int64{}
	for _, cs := range s.Classes {
		for code, n := range cs.StatusCounts {
			merged[code] += n
		}
	}
	codes := make([]string, 0, len(merged))
	for code := range merged {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	parts := make([]string, 0, len(codes))
	for _, code := range codes {
		parts = append(parts, fmt.Sprintf("%s:%d", code, merged[code]))
	}
	return strings.Join(parts, " ")
}
