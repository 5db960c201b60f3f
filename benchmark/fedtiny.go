package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/daemon"
	"imagebench/internal/fed"
	"imagebench/internal/obs"
	"imagebench/internal/sweep"
)

// tinyExperiments run in well under a millisecond at any cluster size, so
// a federated cell's time is the federation's, not the experiment's.
var tinyExperiments = []string{
	"abl-dask-stealing", "abl-myria-pushdown", "abl-spark-pytax",
	"fig10a", "fig10b", "table1",
}

// tinyPoints x len(tinyExperiments) = 900 cells per grid, under the
// scheduler's shipped QueueDepth of 1024. Frozen with the baseline.
const tinyPoints = 150

func tinySpec(seed int64, points int) sweep.Spec {
	rng := rand.New(rand.NewSource(seed))
	spec := sweep.Spec{Experiments: tinyExperiments}
	for _, n := range rng.Perm(1999)[:points] {
		spec.Overrides = append(spec.Overrides, core.Overrides{ClusterNodes: []int{n + 2}})
	}
	return spec
}

type fedTinyInst struct {
	e       *env
	workers []*daemon.Local
	coord   *fed.Coordinator
	metrics *obs.FedMetrics
	spec    sweep.Spec
	want    []byte // single-node canonical artifact of spec

	wallS      float64
	artifactMs float64
}

func setupFedTiny(ctx context.Context, e *env) (instance, error) {
	return newFedInst(ctx, e, tinySpec(e.seed, tinyPoints))
}

func newFedInst(ctx context.Context, e *env, spec sweep.Spec) (*fedTinyInst, error) {
	f := &fedTinyInst{e: e, spec: spec, metrics: obs.NewFedMetrics(obs.NewRegistry())}
	var urls []string
	for i := 0; i < e.par; i++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("worker%d", i))
		sp := e.tr.start(e.parent, "daemon.StartLocal", "")
		w, err := daemon.StartLocal(daemon.Config{
			Workers:  1,
			CacheDir: filepath.Join(dir, "cache"),
			Journal:  filepath.Join(dir, "jobs.journal"),
		})
		sp.end()
		if err != nil {
			f.close()
			return nil, fmt.Errorf("fed-tiny: boot worker %d: %w", i, err)
		}
		f.workers = append(f.workers, w)
		urls = append(urls, w.BaseURL)
	}
	cfg := fed.Config{Workers: urls, JournalPath: filepath.Join(e.dir, "coord.journal"), Metrics: f.metrics}
	if e.tr != nil {
		// The coordinator's HTTP client is its public seam: in a traced
		// round every round trip to a worker becomes a span.
		cfg.Client = &http.Client{Transport: &tracedTransport{tr: e.tr, parent: e.parent, next: http.DefaultTransport}}
	}
	coord, err := fed.New(cfg)
	if err != nil {
		f.close()
		return nil, fmt.Errorf("fed-tiny: coordinator: %w", err)
	}
	f.coord = coord

	// The reference: the canonical artifact a single node would write,
	// from direct runs of every cell.
	cells, err := sweep.Expand(spec)
	if err != nil {
		f.close()
		return nil, fmt.Errorf("fed-tiny: expand: %w", err)
	}
	tables := make(map[string]*core.Table, len(cells))
	for _, c := range cells {
		tab, err := directRun(ctx, c.Experiment, c.Profile)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("fed-tiny: %w", err)
		}
		tables[c.Key] = tab
	}
	var buf bytes.Buffer
	err = sweep.WriteCanonicalArtifact(&buf, sweep.GridID(cells), spec, cells, func(c *sweep.Cell) *core.Table { return tables[c.Key] })
	if err != nil {
		f.close()
		return nil, fmt.Errorf("fed-tiny: reference artifact: %w", err)
	}
	f.want = buf.Bytes()
	return f, nil
}

// round runs the grid through the coordinator once. The workers' caches
// hold every cell afterwards, so an instance runs one round.
func (f *fedTinyInst) round(ctx context.Context, r *round) {
	tr := f.e.tr
	total := len(f.spec.Experiments) * len(f.spec.Overrides)
	op := tr.start(f.e.parent, "grid", "")
	t0 := time.Now()
	sp := tr.start(op, "fed.Coordinator.Run", "")
	res, err := f.coord.Run(ctx, f.spec)
	sp.end()
	if err != nil {
		op.end()
		r.ops(total, total)
		r.fail("coordinator run: %v", err)
		return
	}
	var buf bytes.Buffer
	t1 := time.Now()
	sp = tr.start(op, "fed.Result.WriteArtifact", "")
	err = res.WriteArtifact(&buf)
	sp.end()
	op.end()
	f.artifactMs = float64(time.Since(t1).Nanoseconds()) / 1e6
	f.wallS = time.Since(t0).Seconds()
	r.waits(f.wallS * 1e3)

	total = len(res.Cells)
	switch {
	case err != nil:
		r.ops(total, total)
		r.fail("write artifact: %v", err)
	case !bytes.Equal(buf.Bytes(), f.want):
		// Which cells differ is not known from bytes alone, so none of
		// the grid counts as verified.
		r.ops(total, total)
		r.fail("federated artifact differs from the single-node canonical artifact (%d cells failed)", len(res.Failed))
	default:
		r.ops(total, len(res.Failed))
	}
}

func (f *fedTinyInst) counters(ctx context.Context, m map[string]float64) {
	var stolen, repl, failures, done, maxDone float64
	for _, w := range f.workers {
		stolen += f.metrics.Stolen.With(w.BaseURL).Value()
		repl += f.metrics.Replications.With(w.BaseURL).Value()
		failures += f.metrics.WorkerFailures.With(w.BaseURL).Value()
		d := f.metrics.Done.With(w.BaseURL).Value()
		done += d
		maxDone = max(maxDone, d)
	}
	m["fed.stolen_cells"] = stolen
	m["fed.replications"] = repl
	m["fed.worker_failures"] = failures
	if done > 0 {
		m["fed.max_worker_share"] = maxDone / done
	}
	m["fed.artifact_ms"] = f.artifactMs
	// The comparison run: the same grid on one daemon with nproc workers
	// and the same disk configuration.
	single := *f.e
	single.dir, single.tr = filepath.Join(f.e.dir, "single-node"), nil
	if wall, err := singleNodeWall(ctx, &single, f.spec); err != nil {
		fmt.Fprintf(os.Stderr, "fed-tiny: single-node comparison failed, fed.overhead_x left at 0: %v\n", err)
	} else if wall > 0 {
		m["fed.overhead_x"] = f.wallS / wall
	}
	for _, w := range f.workers {
		// Worker daemons' job spans: queue wait, execute, cache write.
		f.e.tr.harvest(f.e.parent, w.Tracer.Spans(), time.Time{})
	}
}

// sizes: one caller; the connections are the coordinator's own (its
// shipped PerWorker), not a load generator's.
func (f *fedTinyInst) sizes() (int, int, int) {
	workers := 0
	for _, w := range f.workers {
		workers += w.Sched.Stats().Workers
	}
	return 1, 0, workers
}

func (f *fedTinyInst) close() {
	if f.coord != nil {
		_ = f.coord.Close() // journal of a scratch directory about to be removed
	}
	for _, w := range f.workers {
		w.Stop()
	}
}

// singleNodeWall runs spec once through one daemon with nproc workers and
// the same disk configuration, the denominator of fed.overhead_x.
func singleNodeWall(ctx context.Context, e *env, spec sweep.Spec) (float64, error) {
	inst, err := newSweepInst(ctx, e, spec, "")
	if err != nil {
		return 0, err
	}
	defer inst.close()
	t0 := time.Now()
	sw, _, err := inst.d.Sweeps.Submit(spec)
	if err != nil {
		return 0, err
	}
	info, err := sw.StreamArtifact(ctx, io.Discard, inst.d.Cache)
	if err != nil {
		return 0, err
	}
	if info.Done != info.Total {
		return 0, fmt.Errorf("single-node comparison finished %d of %d cells", info.Done, info.Total)
	}
	return time.Since(t0).Seconds(), nil
}

// tracedTransport records one span per coordinator-to-worker round trip,
// named by what the coordinator was doing.
type tracedTransport struct {
	tr     *tracer
	parent spanRef
	next   http.RoundTripper
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := "fed.http.other"
	switch {
	case req.Method == http.MethodPost && req.URL.Path == "/v1/jobs":
		name = "fed.http.submit"
	case req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/v1/results/"):
		name = "fed.http.fetch"
	case req.Method == http.MethodPost && req.URL.Path == "/v1/results":
		name = "fed.http.replicate"
	}
	t0 := time.Now()
	resp, err := t.next.RoundTrip(req)
	t.tr.add(t.parent, name, "", t0, time.Since(t0))
	return resp, err
}
