// Command imagebenchd is the experiment service daemon: a long-lived
// HTTP server that schedules paper-reproduction experiments on a
// bounded worker pool, deduplicates identical requests, serves results
// from a content-addressed cache, and runs parameter-grid sweeps with a
// crash-safe job journal — on restart, journaled jobs and persisted
// sweeps are resubmitted, the cache answers the work that completed,
// and only the rest runs. With -debug-addr a second,
// operator-only listener serves net/http/pprof profiles.
//
// The service itself lives in internal/daemon, so the benchmark's
// workloads and the tests boot the exact same stack in-process; this
// command adds the flags and the timeout-guarded listeners.
//
// Usage:
//
//	imagebenchd -addr :8080 -workers 8 \
//	    -cache-dir /var/cache/imagebench \
//	    -journal /var/cache/imagebench.journal \
//	    -sweep-dir /var/cache/imagebench-sweeps
//
// API:
//
//	GET  /healthz              liveness probe
//	GET  /metrics              Prometheus text exposition (scrape target)
//	GET  /metrics.json         the same counters as JSON
//	GET  /v1/experiments       list registered experiments
//	POST /v1/jobs              {"experiments":["fig11"],"profile":"quick","wait":true}
//	GET  /v1/jobs              list all jobs
//	GET  /v1/jobs/{id}         one job's status (evicted jobs answer from their tombstone)
//	GET  /v1/results           list cached result keys
//	GET  /v1/results/{key}     cached table (JSON, or text via Accept: text/plain)
//	POST /v1/sweeps            {"experiments":["fig10*"],"profiles":["quick"],
//	                            "overrides":[{"clusterNodes":[4]}],"wait":false}
//	GET  /v1/sweeps            list sweeps (aggregate progress)
//	GET  /v1/sweeps/{id}       one sweep, with per-cell state
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"imagebench/internal/daemon"
	"imagebench/internal/obs"
)

func main() {
	def := daemon.DefaultTimeouts()
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue", 1024, "max queued jobs before submits are rejected")
	maxJobs := flag.Int("max-jobs", 0, "retained job-index bound; oldest terminated jobs are evicted past it (0 = default 4096)")
	cacheDir := flag.String("cache-dir", "", "result-cache directory (empty = in-memory only)")
	journal := flag.String("journal", "", "append-only job-journal file (empty = no journal)")
	sweepDir := flag.String("sweep-dir", "", "sweep-spec directory (empty = sweeps not persisted)")
	debugAddr := flag.String("debug-addr", "", "optional second listen address serving /debug/pprof (keep it private)")
	readTimeout := flag.Duration("read-timeout", def.Read, "max time to read a full request, body included")
	writeTimeout := flag.Duration("write-timeout", def.Write, "max time to write a full response; bounds wait=true handlers, raise it for full-profile waits")
	idleTimeout := flag.Duration("idle-timeout", def.Idle, "max keep-alive idle time between requests")
	flag.Parse()

	d, err := daemon.New(daemon.Config{
		Workers:    *workers,
		QueueDepth: *queueDepth,
		MaxJobs:    *maxJobs,
		CacheDir:   *cacheDir,
		Journal:    *journal,
		SweepDir:   *sweepDir,
	})
	if err != nil {
		log.Fatalf("imagebenchd: %v", err)
	}
	for _, warn := range d.Warnings {
		log.Printf("imagebenchd: warning: %s", warn)
	}
	if d.RecoveredJobs > 0 || d.RecoveredSweeps > 0 {
		log.Printf("imagebenchd: recovered %d pending job(s), re-adopted %d sweep(s)",
			d.RecoveredJobs, d.RecoveredSweeps)
	}

	// Every listener carries the full timeout set so slow or stalled
	// clients cannot pin connections; see daemon.Timeouts.
	timeouts := def
	timeouts.Read = *readTimeout
	timeouts.Write = *writeTimeout
	timeouts.Idle = *idleTimeout
	srv := daemon.NewHTTPServer(*addr, d.Handler, timeouts)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// The pprof listener is opt-in and separate from the API address so
	// profiling endpoints are never exposed where the API is. Its write
	// timeout must cover ?seconds=N profile captures.
	if *debugAddr != "" {
		dbgTimeouts := daemon.DefaultTimeouts()
		dbgTimeouts.Write = 5 * time.Minute
		dbg := daemon.NewHTTPServer(*debugAddr, obs.DebugHandler(), dbgTimeouts)
		go func() {
			log.Printf("imagebenchd: pprof on %s", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("imagebenchd: debug listener: %v", err)
			}
		}()
		go func() {
			<-ctx.Done()
			shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			dbg.Shutdown(shutCtx)
		}()
	}

	go func() {
		<-ctx.Done()
		log.Print("imagebenchd: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(shutCtx)
	}()

	log.Printf("imagebenchd: listening on %s (workers=%d, cache=%s, timeouts r/w/i=%s/%s/%s)",
		*addr, d.Sched.Stats().Workers, cacheLabel(*cacheDir),
		timeouts.Read, timeouts.Write, timeouts.Idle)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("imagebenchd: %v", err)
	}
	d.Close()
}

func cacheLabel(dir string) string {
	if dir == "" {
		return "memory"
	}
	return dir
}
