package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"time"

	"imagebench/internal/astro"
	"imagebench/internal/cluster"
	"imagebench/internal/core"
	"imagebench/internal/cost"
	"imagebench/internal/daemon"
	"imagebench/internal/dmri"
	"imagebench/internal/engine"
	"imagebench/internal/fed"
	"imagebench/internal/fits"
	"imagebench/internal/fsatomic"
	"imagebench/internal/imaging"
	"imagebench/internal/jsonl"
	"imagebench/internal/neuro"
	"imagebench/internal/objstore"
	"imagebench/internal/results"
	"imagebench/internal/runner"
	"imagebench/internal/skymap"
	"imagebench/internal/sweep"
	"imagebench/internal/synth"
	"imagebench/internal/volume"
	"imagebench/internal/vtime"
)

// Layer probes: direct timed calls into each lower layer's public
// functions, on the inputs the workloads feed them (quick-profile
// subjects, exposures, tables and grids). They run once per traced run,
// after the workload, and are the same whatever workload was traced.

// medianOf times fn reps times and returns the median.
func medianOf(reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0).Nanoseconds())
	}
	return time.Duration(median(ds))
}

// perCall times batches of n calls and returns the median time of one
// call, for operations too short to time singly.
func perCall(reps, n int, fn func(i int)) time.Duration {
	return medianOf(reps, func() {
		for i := 0; i < n; i++ {
			fn(i)
		}
	}) / time.Duration(n)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// quickNeuro and quickAstro are the quick profile's synthetic geometry.
func quickNeuro(subjects int) synth.NeuroConfig {
	p := core.Quick()
	c := synth.DefaultNeuro(subjects)
	c.NX, c.NY, c.NZ, c.T, c.B0 = p.NeuroNX, p.NeuroNY, p.NeuroNZ, p.NeuroT, p.NeuroB0
	return c
}

func quickAstro(visits int) synth.AstroConfig {
	p := core.Quick()
	c := synth.DefaultAstro(visits)
	c.Sensors, c.W, c.H, c.Sources = p.AstroSensors, p.AstroW, p.AstroH, p.AstroSources
	return c
}

// noiseVolume is a fixed-seed Gaussian volume for the kernel probes.
func noiseVolume(nx, ny, nz int) *volume.V3 {
	rng := rand.New(rand.NewSource(97))
	v := volume.New3(nx, ny, nz)
	for i := range v.Data {
		v.Data[i] = 100 + 10*rng.NormFloat64()
	}
	return v
}

func sameBits(a, b *volume.V3) bool {
	return a.SameShape(b) && volume.MaxAbsDiff(a, b) == 0
}

// runProbes fills m with every probe-backed per-layer metric.
func runProbes(ctx context.Context, e *env, m map[string]float64) error {
	steps := []struct {
		name string
		fn   func(context.Context, *env, map[string]float64) error
	}{
		{"imaging3d", probeImaging3D},
		{"imaging2d", probeImaging2D},
		{"pipelines", probePipelines},
		{"simulator", probeSimulator},
		{"storage", probeStorage},
		{"service", probeService},
	}
	for _, s := range steps {
		sp := e.tr.start(e.parent, "probe "+s.name, "")
		err := s.fn(ctx, e, m)
		sp.end()
		if err != nil {
			return fmt.Errorf("probe %s: %w", s.name, err)
		}
	}
	return nil
}

// oneSubject generates the first quick-profile subject and returns
// copies of its volumes (the generator recycles its own).
func oneSubject() (*dmri.GradTable, *volume.V4, error) {
	cfg := quickNeuro(1)
	var vols []*volume.V3
	g, err := synth.StreamNeuro(cfg, func(_ int, v4 *volume.V4) error {
		for _, v := range v4.Vols {
			vols = append(vols, v.Clone())
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return g, volume.New4(vols), nil
}

func probeImaging3D(ctx context.Context, e *env, m map[string]float64) error {
	g, data, err := oneSubject()
	if err != nil {
		return err
	}
	mask := neuro.Segment(data.Select(g.B0Mask(50)).Vols)
	dwi := data.Vols[data.T()-1]
	m["imaging.nlmeans3_small_ms"] = ms(medianOf(9, func() { imaging.NLMeans3(dwi, mask, neuro.DenoiseOpts) }))

	large := noiseVolume(48, 48, 32)
	m["imaging.nlmeans3_large_ms"] = ms(medianOf(3, func() { imaging.NLMeans3(large, nil, neuro.DenoiseOpts) }))

	mid := noiseVolume(24, 24, 16)
	seqOpts, parOpts := neuro.DenoiseOpts, neuro.DenoiseOpts
	seqOpts.Workers, parOpts.Workers = 1, 0
	var seqOut, parOut, streamOut *volume.V3
	seq := medianOf(7, func() { seqOut = imaging.NLMeans3(mid, nil, seqOpts) })
	par := medianOf(7, func() { parOut = imaging.NLMeans3(mid, nil, parOpts) })
	arena := volume.NewArena()
	stream := medianOf(7, func() {
		streamOut = volume.Collect(mid.NX, mid.NY, mid.NZ, imaging.NLMeans3Stream(ctx, mid, nil, parOpts, arena, 4))
	})
	if !sameBits(seqOut, parOut) {
		return fmt.Errorf("parallel NLMeans3 output differs from sequential")
	}
	if !sameBits(seqOut, streamOut) {
		return fmt.Errorf("streamed NLMeans3 output differs from batch")
	}
	m["imaging.nlmeans3_seq_ms"] = ms(seq)
	m["imaging.nlmeans3_par_speedup"] = float64(seq) / float64(par)
	m["imaging.nlmeans3_stream_ms"] = ms(stream)
	m["volume.map_overhead_pct"] = (float64(stream)/float64(par) - 1) * 100

	conv := noiseVolume(64, 64, 48)
	k := imaging.GaussianKernel(1.5)
	m["imaging.sepconv3_ms"] = ms(medianOf(5, func() { imaging.SeparableConv3(conv, k, k, k) }))
	m["imaging.median3_ms"] = ms(medianOf(5, func() { imaging.MedianFilter3(mid, 1) }))

	var fitErr error
	m["dmri.fitfa_ms"] = ms(medianOf(5, func() {
		if _, err := dmri.FitFA(g, data, mask); err != nil {
			fitErr = err
		}
	}))
	return fitErr
}

func probeImaging2D(ctx context.Context, e *env, m map[string]float64) error {
	var exp *skymap.Exposure
	if _, err := synth.StreamAstro(quickAstro(2), func(_, _ int, x *skymap.Exposure) error {
		if exp == nil {
			exp = x.Clone()
		}
		return nil
	}); err != nil {
		return err
	}
	m["imaging.background_ms"] = ms(medianOf(21, func() { imaging.EstimateBackground(exp.Flux, astro.BackgroundCell) }))
	flat := exp.Clone()
	bg := imaging.EstimateBackground(flat.Flux, astro.BackgroundCell)
	for i := range flat.Flux.Pix {
		flat.Flux.Pix[i] -= bg.Pix[i]
	}
	m["imaging.cosmicray_ms"] = ms(medianOf(21, func() { imaging.DetectCosmicRays(flat.Flux, flat.Var, astro.CRSigma) }))
	m["imaging.detect_ms"] = ms(medianOf(21, func() { imaging.DetectSources(flat.Flux, astro.DetectSigma, astro.DetectMinPix) }))

	var codecErr error
	m["fits.codec_ms"] = ms(medianOf(21, func() {
		back, err := fits.DecodeExposure(fits.EncodeExposure(exp))
		if err != nil {
			codecErr = err
		} else if !bytes.Equal(back.Mask, exp.Mask) || len(back.Flux.Pix) != len(exp.Flux.Pix) {
			codecErr = fmt.Errorf("FITS round trip changed the exposure")
		}
	}))
	if codecErr != nil {
		return codecErr
	}

	var genErr error
	m["synth.gen_astro_ms"] = ms(medianOf(5, func() {
		if _, err := synth.GenAstro(objstore.New(), quickAstro(2)); err != nil {
			genErr = err
		}
	}))
	m["synth.gen_neuro_ms"] = ms(medianOf(5, func() {
		if _, err := synth.GenNeuro(objstore.New(), quickNeuro(1)); err != nil {
			genErr = err
		}
	}))
	return genErr
}

// probeSubjects and probeNodes size the engine probes: the quick
// profile's middle data point on the paper's base cluster.
const (
	probeSubjects = 4
	probeVisits   = 4
	probeNodes    = 16
)

func probeCluster(inputModelBytes int64) *cluster.Cluster {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = probeNodes
	cfg.MemPerNode = max(cfg.MemPerNode, engine.MemFloor(inputModelBytes, probeNodes))
	return cluster.New(cfg)
}

func probePipelines(ctx context.Context, e *env, m map[string]float64) error {
	// The real kernels of one subject with no engine around them.
	g, data, err := oneSubject()
	if err != nil {
		return err
	}
	var kernErr error
	kernels := medianOf(3, func() {
		mask := neuro.Segment(data.Select(g.B0Mask(50)).Vols)
		den := make([]*volume.V3, data.T())
		for t, v := range data.Vols {
			den[t] = neuro.Denoise(v, mask)
		}
		if _, err := neuro.FitBlock(g, den, mask); err != nil {
			kernErr = err
		}
	})
	if kernErr != nil {
		return kernErr
	}
	m["neuro.kernels_only_ms"] = ms(kernels)

	nw, err := neuro.NewWorkloadCfg(quickNeuro(probeSubjects))
	if err != nil {
		return err
	}
	var engineTotal time.Duration
	for _, eng := range engine.All() {
		t0 := time.Now()
		_, err := eng.RunNeuro(ctx, nw, probeCluster(nw.InputModelBytes()), cost.Default(), engine.Opts{CacheInput: true})
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s neuro: %w", eng.Name(), err)
		}
		m["neuro.engine_run_ms."+eng.Name()] = ms(d)
		engineTotal += d
	}
	m["neuro.redundant_kernel_x"] = float64(engineTotal) / (probeSubjects * float64(kernels))

	aw, err := astro.NewWorkloadCfg(quickAstro(probeVisits))
	if err != nil {
		return err
	}
	for _, eng := range engine.Supporting(engine.CapAstroE2E) {
		t0 := time.Now()
		if _, err := eng.RunAstro(ctx, aw, probeCluster(aw.InputModelBytes()), cost.Default(), engine.Opts{}); err != nil {
			return fmt.Errorf("%s astro: %w", eng.Name(), err)
		}
		m["astro.engine_run_ms."+eng.Name()] = ms(time.Since(t0))
	}
	var refErr error
	m["astro.reference_ms"] = ms(medianOf(3, func() {
		if _, err := astro.Reference(aw); err != nil {
			refErr = err
		}
	}))
	return refErr
}

func probeSimulator(ctx context.Context, e *env, m map[string]float64) error {
	const tasks = 100_000
	m["cluster.submit_ns"] = float64(medianOf(1, func() {
		cfg := cluster.DefaultConfig()
		cfg.Nodes = probeNodes
		cl := cluster.New(cfg)
		var last, prev *cluster.Handle
		for i := 0; i < tasks; i++ {
			var deps []*cluster.Handle
			if prev != nil {
				deps = []*cluster.Handle{prev, last}
			}
			prev, last = last, cl.Submit(i%probeNodes, deps, time.Millisecond, nil)
		}
	}).Nanoseconds()) / tasks

	const reservations = 1_000_000
	m["vtime.reserve_ns"] = float64(medianOf(3, func() {
		var tl vtime.Timeline
		for i := 0; i < reservations; i++ {
			tl.Reserve(vtime.Time(i)*vtime.Time(time.Microsecond), time.Millisecond)
		}
	}).Nanoseconds()) / reservations
	return nil
}

// probeEntries builds n distinct, well-formed cache entries around one
// real table.
func probeEntries(ctx context.Context, n int) ([]*results.Entry, error) {
	const id = "fig10d"
	tab, err := directRun(ctx, id, core.Quick())
	if err != nil {
		return nil, err
	}
	out := make([]*results.Entry, n)
	for i := range out {
		p := core.Quick().Apply(core.Overrides{ClusterNodes: []int{i + 2}})
		out[i] = &results.Entry{Key: results.Key(id, p), Experiment: id, Profile: p, Table: tab}
	}
	return out, nil
}

func probeStorage(ctx context.Context, e *env, m map[string]float64) error {
	const n = 100
	entries, err := probeEntries(ctx, n)
	if err != nil {
		return err
	}
	tab := entries[0].Table
	var encoded []byte
	var codecErr error
	m["core.table_encode_us"] = us(perCall(5, 200, func(int) {
		if encoded, err = tableJSON(tab); err != nil {
			codecErr = err
		}
	}))
	m["core.table_decode_us"] = us(perCall(5, 200, func(int) {
		var back core.Table
		if err := json.Unmarshal(encoded, &back); err != nil {
			codecErr = err
		}
	}))
	if codecErr != nil {
		return codecErr
	}

	var ioErr error
	note := func(err error) {
		if err != nil && ioErr == nil {
			ioErr = err
		}
	}
	mem, err := results.Open("")
	if err != nil {
		return err
	}
	m["results.put_mem_us"] = us(perCall(5, n, func(i int) { note(mem.Put(entries[i])) }))
	m["results.get_mem_ns"] = float64(perCall(5, 100*n, func(i int) {
		if _, ok := mem.Get(entries[i%n].Key); !ok {
			note(fmt.Errorf("memory cache lost %s", entries[i%n].Key))
		}
	}).Nanoseconds())

	dir := filepath.Join(e.dir, "probe-cache")
	disk, err := results.Open(dir)
	if err != nil {
		return err
	}
	m["results.put_disk_us"] = us(perCall(1, n, func(i int) { note(disk.Put(entries[i])) }))
	// A second cache over the same directory has nothing in memory, so
	// each first Get is a disk read-through.
	cold, err := results.Open(dir)
	if err != nil {
		return err
	}
	m["results.get_disk_us"] = us(perCall(1, n, func(i int) {
		if _, ok := cold.Get(entries[i].Key); !ok {
			note(fmt.Errorf("disk cache lost %s", entries[i].Key))
		}
	}))

	line := bytes.Repeat([]byte("x"), 200)
	jf, err := jsonl.Open(filepath.Join(e.dir, "probe.jsonl"))
	if err != nil {
		return err
	}
	m["jsonl.append_us"] = us(perCall(3, 200, func(int) { note(jf.Append(line)) }))
	note(jf.Close())

	page := bytes.Repeat([]byte("y"), 4096)
	m["fsatomic.writefile_us"] = us(perCall(3, 50, func(i int) {
		note(fsatomic.WriteFile(filepath.Join(e.dir, fmt.Sprintf("probe-%d.bin", i)), page))
	}))

	rj, err := runner.OpenJournal(filepath.Join(e.dir, "probe-jobs.journal"))
	if err != nil {
		return err
	}
	p := entries[0].Profile
	m["runner.journal_record_us"] = us(perCall(3, 200, func(i int) {
		note(rj.Record(runner.Record{Op: runner.OpSubmit, JobID: fmt.Sprintf("job-%d", i), Key: entries[0].Key, Experiment: entries[0].Experiment, Profile: &p}))
	}))
	note(rj.Close())

	fj, err := fed.OpenJournal(filepath.Join(e.dir, "probe-fed.journal"))
	if err != nil {
		return err
	}
	m["fed.journal_record_us"] = us(perCall(3, 200, func(i int) {
		note(fj.Record(fed.Record{Op: fed.OpAssign, Key: entries[i%n].Key, Worker: "http://127.0.0.1:1"}))
	}))
	note(fj.Close())
	return ioErr
}

func probeService(ctx context.Context, e *env, m map[string]float64) error {
	d, err := daemon.StartLocal(daemon.Config{Workers: e.par})
	if err != nil {
		return err
	}
	defer d.Stop()

	// Scheduler: a submit answered from the cache.
	first, err := d.Sched.Submit("fig10a", core.Quick())
	if err != nil {
		return err
	}
	if _, err := runner.Wait(ctx, first); err != nil {
		return err
	}
	var subErr error
	m["runner.submit_hit_us"] = us(perCall(5, 1000, func(int) {
		if _, err := d.Sched.Submit("fig10a", core.Quick()); err != nil {
			subErr = err
		}
	}))
	if subErr != nil {
		return subErr
	}

	// Sweep: expansion, submission, and artifact encoding of the
	// fed-tiny grid.
	spec := tinySpec(e.seed, tinyPoints)
	var cells []*sweep.Cell
	expand := medianOf(5, func() { cells, err = sweep.Expand(spec) })
	if err != nil {
		return err
	}
	m["sweep.expand_us_per_cell"] = us(expand) / float64(len(cells))
	t0 := time.Now()
	sw, _, err := d.Sweeps.Submit(spec)
	if err != nil {
		return err
	}
	m["sweep.submit_ms"] = ms(time.Since(t0))
	if err := sw.Wait(ctx); err != nil {
		return err
	}
	t0 = time.Now()
	info, err := sw.StreamArtifact(ctx, io.Discard, d.Cache)
	if err != nil {
		return err
	}
	if info.Done != info.Total {
		return fmt.Errorf("probe sweep finished %d of %d cells", info.Done, info.Total)
	}
	m["sweep.artifact_us_per_cell"] = us(time.Since(t0)) / float64(info.Total)

	// Daemon: the same two requests through the handler alone and over
	// loopback; the difference is the network stack's share.
	key := results.Key("fig10a", core.Quick())
	const submitBody = `{"experiments":["fig10a"],"profile":"quick","wait":true}`
	handler := func(method, path, body string) (time.Duration, error) {
		var bad error
		per := perCall(5, 200, func(int) {
			rec := httptest.NewRecorder()
			d.Handler.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				bad = fmt.Errorf("%s %s through the handler: status %d", method, path, rec.Code)
			}
		})
		return per, bad
	}
	hs, err := handler(http.MethodPost, "/v1/jobs", submitBody)
	if err != nil {
		return err
	}
	hr, err := handler(http.MethodGet, "/v1/results/"+key, "")
	if err != nil {
		return err
	}
	m["daemon.handler_us.submit"] = us(hs)
	m["daemon.handler_us.result"] = us(hr)

	client := &http.Client{Timeout: time.Minute}
	defer client.CloseIdleConnections()
	var netErr error
	loop := perCall(5, 200, func(int) {
		resp, err := client.Get(d.BaseURL + "/v1/results/" + key)
		if err != nil {
			netErr = err
			return
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			netErr = err
		}
		if err := resp.Body.Close(); err != nil {
			netErr = err
		}
		if resp.StatusCode != http.StatusOK {
			netErr = fmt.Errorf("GET result over loopback: status %d", resp.StatusCode)
		}
	})
	if netErr != nil {
		return netErr
	}
	m["daemon.net_us"] = us(loop - hr)

	scrape, err := handler(http.MethodGet, "/metrics", "")
	if err != nil {
		return err
	}
	m["daemon.metrics_scrape_ms"] = ms(scrape)
	return nil
}
