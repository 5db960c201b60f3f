package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// env is what a workload is given: the seed its inputs derive from, the
// parallelism every machine-tied size is capped by, a scratch directory
// of its own, and the tracer (nil in untraced rounds).
type env struct {
	seed int64
	par  int    // min(nproc, GOMAXPROCS): clients, connections and runner workers never exceed it
	dir  string // removed by the caller after close
	root string // repository root (goldens live under it)
	tr   *tracer
	// parent is the span the instance's spans hang under.
	parent spanRef
}

// instance is one set-up of a workload: everything booted and generated,
// ready to run one round. A round is a fixed amount of work, identical
// for every instance of a run.
type instance interface {
	// round runs the workload's fixed work once, reporting each
	// operation and each caller-observed wait to r. It never aborts on
	// a failed op.
	round(ctx context.Context, r *round)
	// counters reports the layer counters of the round just run, for
	// the traced run's per-layer metrics; it is not called on untraced
	// rounds.
	counters(ctx context.Context, m map[string]float64)
	// sizes reports the sizes tied to the machine, which the harness
	// holds to nproc: load-generating goroutines, client connections,
	// and runner workers across every daemon the instance booted.
	sizes() (clients, connections, runnerWorkers int)
	close()
}

// workload binds a spec row to its set-up function.
type workload struct {
	spec  *workloadSpec
	setup func(ctx context.Context, e *env) (instance, error)
}

// round accumulates one round's accounting. Clients running in parallel
// keep private tallies and merge them once, so nothing here is on a
// request path.
type round struct {
	mu        sync.Mutex
	attempted int
	failed    int
	waitsMs   []float64 // caller-observed waits, see op_ms_p50
	failures  []string  // the first few failure messages, for the report
}

// ops counts n attempted operations, failed of which did not verify.
func (r *round) ops(n, failed int) {
	r.mu.Lock()
	r.attempted += n
	r.failed += failed
	r.mu.Unlock()
}

// waits records caller-observed waits.
func (r *round) waits(ms ...float64) {
	r.mu.Lock()
	r.waitsMs = append(r.waitsMs, ms...)
	r.mu.Unlock()
}

// fail records why an operation failed; the count is kept by ops.
func (r *round) fail(format string, args ...any) {
	r.mu.Lock()
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// roundResult is what one round measured.
type roundResult struct {
	SetupS    float64
	WallS     float64
	CPUS      float64
	AllocMB   float64
	Attempted int
	Failed    int
	Traced    bool
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// timeRound runs one round of inst and measures it from outside: wall,
// CPU and allocation over exactly the round, after a collection so every
// round starts from the same heap state.
func timeRound(ctx context.Context, inst instance, r *round) roundResult {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	inst.round(ctx, r)
	wall := time.Since(t0)
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	return roundResult{
		WallS:     wall.Seconds(),
		CPUS:      cpu1 - cpu0,
		AllocMB:   float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		Attempted: r.attempted,
		Failed:    r.failed,
	}
}

// sampler watches the process while traced rounds run: peak live heap
// and peak goroutine count on a 5 ms tick. It reads runtime/metrics,
// which does not stop the world the way ReadMemStats does.
type sampler struct {
	stop          chan struct{}
	done          chan struct{}
	peakHeapBytes uint64
	peakGoroutine uint64
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		samples := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/sched/goroutines:goroutines"},
		}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			if v := samples[0].Value; v.Kind() == metrics.KindUint64 {
				s.peakHeapBytes = max(s.peakHeapBytes, v.Uint64())
			}
			if v := samples[1].Value; v.Kind() == metrics.KindUint64 {
				s.peakGoroutine = max(s.peakGoroutine, v.Uint64())
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// halt stops the sampler and waits for it; the peaks are safe to read
// afterwards.
func (s *sampler) halt() {
	close(s.stop)
	<-s.done
}

// gcPauseSeconds is the total stop-the-world GC pause so far.
func gcPauseSeconds() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.PauseTotalNs) / 1e9
}
