package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/daemon"
	"imagebench/internal/results"
	"imagebench/internal/runner"
)

// serveExperiments are cheap experiments, so pre-warming 64 keys is quick
// and every timed request is a cache hit.
var serveExperiments = []string{
	"fig10a", "fig10b", "fig10d", "fig10f", "table1",
	"abl-spark-pytax", "abl-myria-pushdown", "abl-dask-stealing",
}

// Sizes of one serve-hot round, frozen with the baseline.
const (
	servePoints      = 8     // node points per experiment: 8 x 8 = 64 keys
	serveRequests    = 25000 // per client per round
	serveZipfS       = 1.2
	serveSampleOneIn = 50 // bodies checked: 2%
)

// The request classes and their weights (4/3/2/1), in requestClasses
// order.
var classWeights = [...]int{4, 3, 2, 1}

// serveKey is one pre-warmed (experiment, profile) pair.
type serveKey struct {
	key        string // content address
	submitBody string // POST /v1/jobs body that resolves to key
	wantResult []byte // GET /v1/results/{key} body, from a direct run
}

type serveHotInst struct {
	e        *env
	requests int // per client per round
	d        *daemon.Local
	client   *http.Client
	keys     []serveKey
	jobIDs   []string // one finished job per key, from the pre-warm
	sweepID  string

	sched  runner.Stats
	cache  results.Stats
	http5  int
	rounds int
}

func setupServeHot(ctx context.Context, e *env) (instance, error) {
	return newServeInst(ctx, e, serveExperiments, servePoints, serveRequests)
}

// newServeInst boots a memory-only daemon and pre-warms one key per
// (experiment, seeded node point) through the front door, keeping a
// direct run's bytes for each to check responses against.
func newServeInst(ctx context.Context, e *env, experiments []string, nPoints, requests int) (*serveHotInst, error) {
	s := &serveHotInst{e: e, requests: requests}
	sp := e.tr.start(e.parent, "daemon.StartLocal", "")
	d, err := daemon.StartLocal(daemon.Config{Workers: e.par})
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("serve-hot: boot daemon: %w", err)
	}
	s.d = d
	// One connection per client, never more than nproc.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = e.par
	tr.MaxConnsPerHost = e.par
	s.client = &http.Client{Transport: tr, Timeout: time.Minute}

	rng := rand.New(rand.NewSource(e.seed))
	var points []core.Overrides
	for _, n := range rng.Perm(63)[:nPoints] {
		points = append(points, core.Overrides{ClusterNodes: []int{n + 2}})
	}
	for _, id := range experiments {
		for _, ov := range points {
			p := core.Quick().Apply(ov)
			k := serveKey{
				key:        results.Key(id, p),
				submitBody: fmt.Sprintf(`{"experiments":[%q],"profile":"quick","overrides":{"clusterNodes":[%d]},"wait":true}`, id, ov.ClusterNodes[0]),
			}
			tab, err := directRun(ctx, id, p)
			if err != nil {
				s.close()
				return nil, fmt.Errorf("serve-hot: %w", err)
			}
			want, err := json.MarshalIndent(&results.Entry{Key: k.key, Experiment: id, Profile: p, Table: tab}, "", "  ")
			if err != nil {
				s.close()
				return nil, err
			}
			k.wantResult = append(want, '\n')
			s.keys = append(s.keys, k)
		}
	}

	// Pre-warm through the front door, so every key is cached and has a
	// finished job to poll, and leave one finished sweep to list.
	var buf bytes.Buffer
	for _, k := range s.keys {
		status, err := s.do(ctx, http.MethodPost, "/v1/jobs", k.submitBody, &buf)
		if err != nil || status != http.StatusOK {
			s.close()
			return nil, fmt.Errorf("serve-hot: pre-warm %s: status %d, %v", k.key[:12], status, err)
		}
		id := jobID(buf.Bytes())
		if id == "" || !bytes.Contains(buf.Bytes(), []byte(k.key)) {
			s.close()
			return nil, fmt.Errorf("serve-hot: pre-warm %s: response names no job for the key", k.key[:12])
		}
		s.jobIDs = append(s.jobIDs, id)
	}
	ovs, _ := json.Marshal(points[:min(2, len(points))])
	exps, _ := json.Marshal(experiments)
	status, err := s.do(ctx, http.MethodPost, "/v1/sweeps", fmt.Sprintf(`{"experiments":%s,"overrides":%s,"wait":true}`, exps, ovs), &buf)
	if err != nil || status != http.StatusOK {
		s.close()
		return nil, fmt.Errorf("serve-hot: pre-warm sweep: status %d, %v", status, err)
	}
	var sw struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(buf.Bytes(), &sw); err != nil || sw.ID == "" {
		s.close()
		return nil, fmt.Errorf("serve-hot: pre-warm sweep: no sweep id in response (%v)", err)
	}
	s.sweepID = sw.ID
	return s, nil
}

// do sends one request and reads the whole response into buf.
func (s *serveHotInst) do(ctx context.Context, method, path, body string, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.d.BaseURL+path, rd)
	if err != nil {
		return 0, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, err
}

// jobID pulls the first job ID out of a POST /v1/jobs response with a
// byte scan: the client must stay light next to the server it loads.
func jobID(body []byte) string {
	const tag = `"id": "`
	i := bytes.Index(body, []byte(tag))
	if i < 0 {
		return ""
	}
	rest := body[i+len(tag):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// clientTally is one client's private accounting for a round.
type clientTally struct {
	attempted, failed, http5 int
	waitsMs                  []float64
	failure                  string
}

// round runs nproc closed-loop clients, each sending s.requests
// requests: a client's next request goes out when its previous response
// has been read in full, which is how the daemon's callers (CLI,
// coordinator) behave.
func (s *serveHotInst) round(ctx context.Context, r *round) {
	s.sched, s.cache = s.d.Sched.Stats(), s.d.Cache.Stats()
	s.rounds++
	op := s.e.tr.start(s.e.parent, "clients", "")
	tallies := make([]clientTally, s.e.par)
	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s.runClient(ctx, op, c, &tallies[c])
		}(c)
	}
	wg.Wait()
	op.end()
	for i := range tallies {
		t := &tallies[i]
		r.ops(t.attempted, t.failed)
		r.waits(t.waitsMs...)
		s.http5 += t.http5
		if t.failure != "" {
			r.fail("client %d: %s", i, t.failure)
		}
	}
}

func (s *serveHotInst) runClient(ctx context.Context, parent spanRef, id int, t *clientTally) {
	rng := rand.New(rand.NewSource(s.e.seed*1000003 + int64(s.rounds)*1009 + int64(id)))
	zipf := rand.NewZipf(rng, serveZipfS, 1, uint64(len(s.keys)-1))
	totalWeight := 0
	for _, w := range classWeights {
		totalWeight += w
	}
	// Recent job IDs for the jobpoll class, seeded by the pre-warm.
	ring := append([]string(nil), s.jobIDs...)
	ringNext := 0
	t.waitsMs = make([]float64, 0, s.requests)
	var buf bytes.Buffer

	for n := 0; n < s.requests; n++ {
		w, class := rng.Intn(totalWeight), 0
		for w >= classWeights[class] {
			w -= classWeights[class]
			class++
		}
		k := &s.keys[zipf.Uint64()]
		check := rng.Intn(serveSampleOneIn) == 0
		method, path, body := http.MethodGet, "", ""
		var want []byte // the response must contain (result: equal) these bytes
		switch requestClasses[class] {
		case "submit":
			method, path, body = http.MethodPost, "/v1/jobs", k.submitBody
			want = []byte(`"cacheHit": true`)
		case "result":
			path, want = "/v1/results/"+k.key, k.wantResult
		case "jobpoll":
			path, want = "/v1/jobs/"+ring[rng.Intn(len(ring))], []byte(`"status": "done"`)
		case "sweeppoll":
			path, want = "/v1/sweeps", []byte(s.sweepID)
		}

		t0 := time.Now()
		status, err := s.do(ctx, method, path, body, &buf)
		d := time.Since(t0)
		t.attempted++
		t.waitsMs = append(t.waitsMs, float64(d.Nanoseconds())/1e6)
		s.e.tr.add(parent, "http."+requestClasses[class], "", t0, d)

		ok := err == nil && status >= 200 && status < 300
		if status >= 500 {
			t.http5++
		}
		if ok && check {
			if requestClasses[class] == "result" {
				ok = bytes.Equal(buf.Bytes(), want)
			} else {
				ok = bytes.Contains(buf.Bytes(), want)
			}
		}
		if ok && requestClasses[class] == "submit" {
			if jid := jobID(buf.Bytes()); jid != "" {
				ring[ringNext%len(ring)] = jid
				ringNext++
			}
		}
		if !ok {
			t.failed++
			if t.failure == "" {
				t.failure = fmt.Sprintf("%s %s: status %d, err %v, verified=%v", method, path, status, err, !check)
			}
		}
	}
}

func (s *serveHotInst) counters(_ context.Context, m map[string]float64) {
	daemonCounters(m, s.d.Daemon, s.sched, s.cache)
	m["daemon.http_5xx"] = float64(s.http5)
}

func (s *serveHotInst) sizes() (int, int, int) {
	return s.e.par, s.client.Transport.(*http.Transport).MaxConnsPerHost, s.d.Sched.Stats().Workers
}

func (s *serveHotInst) close() {
	s.client.CloseIdleConnections()
	s.d.Stop()
}
