package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/engine"
	"imagebench/internal/obs"
	"imagebench/internal/results"
	"imagebench/internal/runner"
	"imagebench/internal/sweep"
)

// server wires the scheduler, result cache, and sweep manager into the
// HTTP API. It is constructed by newServer so tests can drive it
// through httptest.
type server struct {
	sched  *runner.Scheduler
	cache  *results.Cache
	sweeps *sweep.Manager
	start  time.Time

	// Responder writes every response body and accounts the ones it
	// failed to write (surfaced via /metrics.json and the Prometheus
	// counter).
	Responder
}

// newServer returns the daemon's HTTP handler over the given scheduler,
// cache, sweep manager, and metrics registry.
func newServer(sched *runner.Scheduler, cache *results.Cache, sweeps *sweep.Manager, metrics *obs.Registry) http.Handler {
	s := &server{sched: sched, cache: cache, sweeps: sweeps, start: time.Now()}
	if metrics != nil {
		s.WriteErrorsTotal = metrics.NewCounter("imagebench_daemon_response_write_errors_total",
			"Response bodies the daemon failed to write (client gone mid-response).")
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.Healthz)
	mux.HandleFunc("GET /metrics", s.Metrics(metrics))
	mux.HandleFunc("GET /metrics.json", s.handleMetrics)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/engines", s.handleEngines)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/results", s.handleResultKeys)
	mux.HandleFunc("POST /v1/results", s.handleResultIngest)
	mux.HandleFunc("GET /v1/results/{key}", s.handleResult)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	mux.HandleFunc("GET /v1/sweeps", s.handleSweeps)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweep)
	return mux
}

// maxRequestBytes caps JSON request bodies. The daemon's requests are
// small specs (experiment IDs, profiles, override lists); 1 MiB is
// orders of magnitude above any legitimate payload.
const maxRequestBytes = 1 << 20

// decodeRequest decodes a body of at most limit bytes that holds exactly
// one JSON value, with the defenses every network-facing decoder needs:
// a hard size cap (a huge body would otherwise be buffered without
// bound), rejection of unknown fields (a typoed "experimens" key fails
// loudly instead of submitting an empty job) and rejection of anything
// after the value (a body the client garbled is not half-accepted). It
// writes the error response itself and reports whether decoding
// succeeded.
func (s *server) decodeRequest(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	dec := newBodyDecoder(w, r, limit)
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if err == nil {
			err = errors.New("body holds more than one JSON value")
		}
	}
	s.writeDecodeError(w, err, limit)
	return false
}

// newBodyDecoder caps the request body at limit bytes and decodes it
// strictly (unknown fields are errors).
func newBodyDecoder(w http.ResponseWriter, r *http.Request, limit int64) *json.Decoder {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec
}

// writeDecodeError answers a body that did not decode: 413 when it hit
// the size cap, 400 otherwise.
func (s *server) writeDecodeError(w http.ResponseWriter, err error, limit int64) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.WriteError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", limit)
		return
	}
	s.WriteError(w, http.StatusBadRequest, "decode request: %v", err)
}

// metrics is the expvar-style counter payload served at /metrics.json.
type metrics struct {
	UptimeSeconds           float64 `json:"uptime_seconds"`
	Workers                 int     `json:"workers"`
	JobsSubmitted           int64   `json:"jobs_submitted"`
	JobsExecuted            int64   `json:"jobs_executed"`
	JobsFailed              int64   `json:"jobs_failed"`
	JobsDeduped             int64   `json:"jobs_deduped"`
	JobsCacheHits           int64   `json:"jobs_cache_hits"`
	JobsInFlight            int     `json:"jobs_in_flight"`
	JobsRunning             int64   `json:"jobs_running"`
	CacheHits               int64   `json:"cache_hits"`
	CacheMemHits            int64   `json:"cache_mem_hits"`
	CacheDiskHits           int64   `json:"cache_disk_hits"`
	CacheMisses             int64   `json:"cache_misses"`
	CacheEntries            int     `json:"cache_entries"`
	Sweeps                  int     `json:"sweeps"`
	JournalErrors           int64   `json:"journal_errors"`
	ResponseWriteErrors     int64   `json:"response_write_errors"`
	VirtualSecondsSimulated float64 `json:"virtual_seconds_simulated"`
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.sched.Stats()
	cst := s.cache.Stats()
	s.WriteJSON(w, http.StatusOK, metrics{
		UptimeSeconds:           time.Since(s.start).Seconds(),
		Workers:                 st.Workers,
		JobsSubmitted:           st.Submitted,
		JobsExecuted:            st.Executed,
		JobsFailed:              st.Failed,
		JobsDeduped:             st.Deduped,
		JobsCacheHits:           st.CacheHits,
		JobsInFlight:            st.InFlight,
		JobsRunning:             st.Running,
		CacheHits:               cst.Hits,
		CacheMemHits:            cst.MemHits,
		CacheDiskHits:           cst.DiskHits,
		CacheMisses:             cst.Misses,
		CacheEntries:            cst.Entries,
		Sweeps:                  s.sweeps.Len(),
		JournalErrors:           st.JournalErrors,
		ResponseWriteErrors:     s.WriteErrors.Load(),
		VirtualSecondsSimulated: st.VirtualSeconds,
	})
}

// experimentInfo is one row of GET /v1/experiments.
type experimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Paper string `json:"paper"`
}

func (s *server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	all := core.All()
	out := make([]experimentInfo, 0, len(all))
	for _, e := range all {
		out = append(out, experimentInfo{ID: e.ID, Title: e.Title, Paper: e.Paper})
	}
	s.WriteJSON(w, http.StatusOK, out)
}

// handleEngines serves the engine registry: each registered system
// driver with its capability set (which comparisons it participates
// in) and its fault-recovery mechanism, in engine.Info wire form.
func (s *server) handleEngines(w http.ResponseWriter, r *http.Request) {
	s.WriteJSON(w, http.StatusOK, engine.Describe())
}

// submitRequest is the POST /v1/jobs body. Experiments lists IDs, or
// the single element "all" for the whole registry; profile is "quick"
// or "full" (default "quick"). Overrides, when present, derive a
// profile variant (core.Profile.Apply) — the form a federation
// coordinator submits individual sweep cells in, since derived
// profiles like "quick+nodes=4" have no standalone name. With
// wait=true the response is delayed until every job terminates, which
// makes one-shot curl runs trivial.
type submitRequest struct {
	Experiments []string        `json:"experiments"`
	Profile     string          `json:"profile"`
	Overrides   *core.Overrides `json:"overrides,omitempty"`
	Wait        bool            `json:"wait"`
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if !s.decodeRequest(w, r, &req, maxRequestBytes) {
		return
	}
	if len(req.Experiments) == 0 {
		s.WriteError(w, http.StatusBadRequest, "experiments list is empty (use [\"all\"] for everything)")
		return
	}
	if req.Profile == "" {
		req.Profile = "quick"
	}
	profile, err := core.ProfileByName(req.Profile)
	if err != nil {
		s.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Overrides != nil {
		if err := req.Overrides.Validate(); err != nil {
			s.WriteError(w, http.StatusBadRequest, "overrides: %v", err)
			return
		}
		profile = profile.Apply(*req.Overrides)
	}
	ids := req.Experiments
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil
		for _, e := range core.All() {
			ids = append(ids, e.ID)
		}
	}

	// Validate every ID before submitting any: a bad ID midway through
	// the loop must not leave the earlier experiments silently running
	// with the client told only "unknown experiment".
	for _, id := range ids {
		if _, err := core.Lookup(id); err != nil {
			s.WriteError(w, http.StatusBadRequest, "%v (nothing submitted)", err)
			return
		}
	}

	jobs := make([]*runner.Job, 0, len(ids))
	for _, id := range ids {
		j, err := s.sched.Submit(id, profile)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, runner.ErrQueueFull) || errors.Is(err, runner.ErrClosed) {
				status = http.StatusServiceUnavailable
			}
			// Jobs accepted before the failure keep running; the client
			// must learn their IDs or it can never poll, wait on, or
			// account for the partial batch.
			s.WriteJSON(w, status, map[string]any{
				"jobs":  snapshotJobs(jobs),
				"error": fmt.Sprintf("submit %s: %v (%d of %d jobs accepted)", id, err, len(jobs), len(ids)),
			})
			return
		}
		jobs = append(jobs, j)
	}

	status := http.StatusAccepted
	if req.Wait {
		for _, j := range jobs {
			select {
			case <-j.Done():
			case <-r.Context().Done():
				s.WriteError(w, http.StatusRequestTimeout, "client went away while waiting")
				return
			}
		}
		status = http.StatusOK
	}
	s.WriteJSON(w, status, map[string]any{"jobs": snapshotJobs(jobs)})
}

// snapshotJobs collects the Info snapshots of jobs, never nil (so the
// JSON field is [] rather than null).
func snapshotJobs(jobs []*runner.Job) []runner.Info {
	infos := make([]runner.Info, 0, len(jobs))
	for _, j := range jobs {
		infos = append(infos, j.Snapshot())
	}
	return infos
}

func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.WriteJSON(w, http.StatusOK, map[string]any{"jobs": snapshotJobs(s.sched.Jobs())})
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.sched.Job(id)
	if !ok {
		// The job index is bounded: a terminated job may have been
		// evicted while a poller still holds its ID. As long as its
		// terminal state is reconstructible (and, for done jobs, the
		// result still cached), answer from the tombstone instead of
		// 404ing work that succeeded.
		if info, ok := s.sched.EvictedInfo(id); ok {
			s.WriteJSON(w, http.StatusOK, info)
			return
		}
		s.WriteError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	s.WriteJSON(w, http.StatusOK, j.Snapshot())
}

func (s *server) handleResultKeys(w http.ResponseWriter, r *http.Request) {
	s.WriteJSON(w, http.StatusOK, map[string]any{"keys": s.cache.Keys()})
}

// MaxIngestBytes caps POST /v1/results bodies; the federation
// coordinator sizes its replication batches by it. A replicated entry
// carries a full result table, so the cap is larger than the job-spec
// cap but still far above any real table.
const MaxIngestBytes = 8 << 20

// handleResultIngest accepts a stream of complete results.Entry values
// and installs them in the local cache — the federation coordinator's
// replication path, by which tables computed on one worker become
// servable from every worker. The cache is content-addressed, so each
// entry's key is recomputed from its experiment and profile and must
// match: accepting a mismatched key would poison every later lookup of
// that key. Every entry is validated before any is stored, and they are
// stored as one Put (one group in the cache's log).
func (s *server) handleResultIngest(w http.ResponseWriter, r *http.Request) {
	dec := newBodyDecoder(w, r, MaxIngestBytes)
	var entries []*results.Entry
	var keys []string
	for {
		entry := new(results.Entry)
		if err := dec.Decode(entry); err == io.EOF && len(entries) > 0 {
			break
		} else if err != nil {
			s.writeDecodeError(w, err, MaxIngestBytes)
			return
		}
		if entry.Table == nil {
			s.WriteError(w, http.StatusBadRequest, "entry %d has no table (nothing stored)", len(entries))
			return
		}
		if want := results.Key(entry.Experiment, entry.Profile); entry.Key != want {
			s.WriteError(w, http.StatusBadRequest, "entry %d: key %.12s does not match content (want %.12s; nothing stored)", len(entries), entry.Key, want)
			return
		}
		entries, keys = append(entries, entry), append(keys, entry.Key)
	}
	if err := s.cache.Put(entries...); err != nil {
		s.WriteError(w, http.StatusInternalServerError, "store entries: %v", err)
		return
	}
	s.WriteJSON(w, http.StatusCreated, map[string]any{"keys": keys})
}

// sweepRequest is the POST /v1/sweeps body: a sweep spec plus wait.
// With wait=true the response is delayed until every cell terminates.
type sweepRequest struct {
	sweep.Spec
	Wait bool `json:"wait"`
}

func (s *server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if !s.decodeRequest(w, r, &req, maxRequestBytes) {
		return
	}
	sw, existing, err := s.sweeps.Submit(req.Spec)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, runner.ErrQueueFull), errors.Is(err, runner.ErrClosed):
			status = http.StatusServiceUnavailable
		case sw != nil:
			// The sweep is executing but could not be persisted: an I/O
			// problem on our side, not a client error.
			status = http.StatusInternalServerError
		}
		s.WriteError(w, status, "%v", err)
		return
	}
	status := http.StatusAccepted
	if existing {
		status = http.StatusOK
	}
	if req.Wait {
		if err := sw.Wait(r.Context()); err != nil {
			s.WriteError(w, http.StatusRequestTimeout, "client went away while waiting")
			return
		}
		status = http.StatusOK
	}
	s.WriteJSON(w, status, sw.Info(true))
}

func (s *server) handleSweeps(w http.ResponseWriter, r *http.Request) {
	list := s.sweeps.List()
	infos := make([]sweep.Info, 0, len(list))
	for _, sw := range list {
		infos = append(infos, sw.Info(false))
	}
	s.WriteJSON(w, http.StatusOK, map[string]any{"sweeps": infos})
}

func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	sid := r.PathValue("id")
	sw, ok := s.sweeps.Get(sid)
	if !ok {
		s.WriteError(w, http.StatusNotFound, "unknown sweep %q", sid)
		return
	}
	s.WriteJSON(w, http.StatusOK, sw.Info(true))
}

// handleResult serves one cached table: JSON by default, the CLI's
// fixed-width rendering when the client asks for text/plain.
func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	entry, ok := s.cache.Get(key)
	if !ok {
		s.WriteError(w, http.StatusNotFound, "no cached result for key %q", key)
		return
	}
	if acceptsPlainText(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if _, err := fmt.Fprintf(w, "# %s  (profile %s, key %s)\n%s",
			entry.Experiment, entry.Profile.Name, entry.Key, entry.Table.Render()); err != nil {
			s.noteWriteError()
		}
		return
	}
	body, err := s.cache.JSON(entry)
	if err != nil {
		s.WriteError(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	s.writeBody(w, http.StatusOK, body)
}
