package runner

import (
	"context"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/obs"
)

// This file wires the scheduler into the observability spine
// (internal/obs): a span tree per job (queued → execute → cache-write,
// with the per-engine stage spans hanging below execute), dedup and
// cache-hit span events, and the scheduler's Prometheus metrics — all
// of it inert when Options.Tracer and Options.Metrics are nil.

// registerMetrics publishes the scheduler's counters and gauges on the
// configured registry. The exported values read the same atomics Stats
// reports, so /metrics and /metrics.json can never disagree.
func (s *Scheduler) registerMetrics(m *obs.Registry) {
	m.NewGaugeFunc("imagebench_workers",
		"Scheduler worker-pool size.",
		func() float64 { return float64(s.opts.Workers) })
	m.NewCounterFunc("imagebench_jobs_submitted_total",
		"Jobs accepted by the scheduler since start, with the canonical runs it submits for followers.",
		func() float64 { return float64(s.submitted.Load()) })
	m.NewCounterFunc("imagebench_jobs_executed_total",
		"Jobs that ran to completion on the worker pool (executions: a follower is not one).",
		func() float64 { return float64(s.executed.Load()) })
	m.NewCounterFunc("imagebench_jobs_failed_total",
		"Jobs that reached a terminal failure.",
		func() float64 { return float64(s.failed.Load()) })
	m.NewCounterFunc("imagebench_jobs_deduped_total",
		"Submissions joined to an identical in-flight job, or following their canonical profile's.",
		func() float64 { return float64(s.deduped.Load()) })
	m.NewCounterFunc("imagebench_jobs_cache_hits_total",
		"Submissions served directly from the result cache (a follower's canonical entry counts).",
		func() float64 { return float64(s.cacheHits.Load()) })
	m.NewGaugeFunc("imagebench_jobs_running",
		"Jobs currently executing on the worker pool.",
		func() float64 { return float64(s.running.Load()) })
	m.NewGaugeFunc("imagebench_jobs_in_flight",
		"Jobs queued or running (the single-flight index size).",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.inflight))
		})
	m.NewCounterFunc("imagebench_journal_errors_total",
		"Journal appends that failed (best-effort writes).",
		func() float64 { return float64(s.journalErrs.Load()) })
	m.NewCounterFunc("imagebench_virtual_seconds_simulated_total",
		"Total simulated (virtual) seconds across executed experiments.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.vsecs
		})
	s.jobLatency = m.NewHistogram("imagebench_job_latency_seconds",
		"Wall-clock job latency from submission to terminal state.",
		obs.DefLatencyBuckets)
}

// withObs attaches the scheduler's tracer and registry to ctx when the
// caller has not already supplied them (a sweep passing its root-span
// context carries the same tracer and keeps its parentage).
func (s *Scheduler) withObs(ctx context.Context) context.Context {
	if s.opts.Tracer != nil && obs.TracerFrom(ctx) == nil {
		ctx = obs.WithTracer(ctx, s.opts.Tracer)
	}
	if s.opts.Metrics != nil && obs.RegistryFrom(ctx) == nil {
		ctx = obs.WithRegistry(ctx, s.opts.Metrics)
	}
	return ctx
}

// ObsContext returns a background context carrying the scheduler's
// observability plumbing — the parent context for work (like sweeps)
// that wants its spans on the scheduler's tracer.
func (s *Scheduler) ObsContext() context.Context {
	return s.withObs(context.Background())
}

// startJobSpans opens the job's root span and its queued child. The
// execute context must derive from the scheduler's cancellation context,
// not the submitter's, so only the span values are retained.
func (j *Job) startJobSpans(ctx context.Context, e *core.Experiment) {
	jctx, span := obs.StartSpan(ctx, "job "+e.ID)
	if span == nil {
		return
	}
	span.SetAttr("experiment", e.ID)
	span.SetAttr("profile", j.profile.Name)
	span.SetAttr("job", j.id)
	span.SetAttr("key", j.key)
	j.span = span
	j.obsCtx = jctx
	_, queued := obs.StartSpan(jctx, "queued")
	j.queuedSpan = queued
}

// execCtxValues returns the job's observability context (the root
// span's context) or a background context when tracing is off — the
// parent for auxiliary spans like cache-write that must not inherit
// the execute span.
func (j *Job) execCtxValues() context.Context {
	if j.obsCtx != nil {
		return j.obsCtx
	}
	return context.Background()
}

// execCtx overlays the job's observability values (tracer, registry,
// parent span) onto the scheduler's cancellation context: cancellation
// always follows s.ctx, span parentage follows the submission.
func (s *Scheduler) execCtx(j *Job) context.Context {
	ctx := s.ctx
	if j.obsCtx == nil {
		return ctx
	}
	if t := obs.TracerFrom(j.obsCtx); t != nil {
		ctx = obs.WithTracer(ctx, t)
	}
	if r := obs.RegistryFrom(j.obsCtx); r != nil {
		ctx = obs.WithRegistry(ctx, r)
	}
	if sp := obs.SpanFrom(j.obsCtx); sp != nil {
		ctx = obs.ContextWithSpan(ctx, sp)
	}
	return ctx
}

// finishJob is the single terminal-state path: it observes the job's
// latency, closes its span tree, and only then settles the job. Every
// finish site in Submit and run goes through it. Closing Done comes
// last because it publishes the job: a waiter it wakes may scrape the
// metrics or read the tracer at once, and must find its own job there.
func (s *Scheduler) finishJob(j *Job, tab *core.Table, err error, cacheHit bool) {
	if s.jobLatency != nil {
		s.jobLatency.Observe(time.Since(j.submitted).Seconds())
	}
	if j.span != nil {
		j.queuedSpan.End()
		if cacheHit {
			j.span.AddEvent("cache-hit")
		}
		if err != nil {
			j.span.SetAttr("error", err.Error())
		}
		j.span.End()
	}
	j.finish(tab, err, cacheHit)
}
