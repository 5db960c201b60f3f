package fed

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/obs"
	"imagebench/internal/results"
	"imagebench/internal/runner"
	"imagebench/internal/sweep"
)

// transportError marks a failure to reach a worker at all — connection
// refused, reset mid-request, unreadable response. It is the signal
// that declares a worker down, as distinct from a worker that answered
// with an application error (which fails the cell, not the worker).
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

func isTransport(err error) bool {
	var te *transportError
	return errors.As(err, &te)
}

// jobRequest mirrors the daemon's POST /v1/jobs body: one experiment,
// the cell's base profile, and its override set (so the worker derives
// the exact same profile — and therefore the exact same result key —
// the coordinator expanded).
type jobRequest struct {
	Experiments []string        `json:"experiments"`
	Profile     string          `json:"profile"`
	Overrides   *core.Overrides `json:"overrides,omitempty"`
	Wait        bool            `json:"wait"`
}

type jobResponse struct {
	Jobs  []runner.Info `json:"jobs"`
	Error string        `json:"error"`
}

// submitCell runs one cell to completion on worker via POST /v1/jobs
// wait=true. Transport failures come back as *transportError; any
// other error is cell-level. A 503 (worker queue momentarily full) is
// retried with backoff — the worker is alive, just saturated.
func (c *Coordinator) submitCell(ctx context.Context, worker string, cell *sweep.Cell) (runner.Info, error) {
	req := jobRequest{Experiments: []string{cell.Experiment}, Profile: cell.Base, Wait: true}
	if !cell.Override.IsZero() {
		o := cell.Override
		req.Overrides = &o
	}
	body, err := json.Marshal(req)
	if err != nil {
		return runner.Info{}, fmt.Errorf("encode job request: %w", err)
	}
	const maxRetries = 10
	for attempt := 0; ; attempt++ {
		status, resp, err := c.post(ctx, worker+"/v1/jobs", body)
		if err != nil {
			return runner.Info{}, err // a *transportError, or a reply over the cap
		}
		if status == http.StatusServiceUnavailable && attempt < maxRetries {
			select {
			case <-time.After(time.Duration(attempt+1) * 100 * time.Millisecond):
				continue
			case <-ctx.Done():
				return runner.Info{}, &transportError{err: ctx.Err()}
			}
		}
		var jr jobResponse
		if err := json.Unmarshal(resp, &jr); err != nil {
			return runner.Info{}, fmt.Errorf("worker answered %d with unparseable body: %.200s", status, resp)
		}
		if status != http.StatusOK {
			return runner.Info{}, fmt.Errorf("worker answered %d: %s", status, jr.Error)
		}
		if len(jr.Jobs) != 1 {
			return runner.Info{}, fmt.Errorf("worker returned %d jobs for one cell", len(jr.Jobs))
		}
		return jr.Jobs[0], nil
	}
}

// fetchEntry retrieves a finished cell's full entry from worker, decoded
// and as the body the worker served (what replication forwards).
// A missing key is (nil, nil, nil).
func (c *Coordinator) fetchEntry(ctx context.Context, worker, key string) (*results.Entry, []byte, error) {
	status, resp, err := c.get(ctx, worker+"/v1/results/"+key)
	if err != nil {
		return nil, nil, err
	}
	if status == http.StatusNotFound {
		return nil, nil, nil
	}
	if status != http.StatusOK {
		return nil, nil, fmt.Errorf("worker answered %d fetching %.12s", status, key)
	}
	var entry results.Entry
	if err := json.Unmarshal(resp, &entry); err != nil || entry.Table == nil {
		return nil, nil, fmt.Errorf("worker served unparseable entry for %.12s", key)
	}
	return &entry, resp, nil
}

// probeEntry tries every live worker for a key during resume. Errors
// are swallowed: the probe is opportunistic, and a cell it cannot
// satisfy just runs normally.
func (c *Coordinator) probeEntry(ctx context.Context, key string) *results.Entry {
	c.mu.Lock()
	live := c.liveWorkersLocked()
	c.mu.Unlock()
	for _, w := range live {
		if entry, _, err := c.fetchEntry(ctx, w, key); err == nil && entry != nil {
			return entry
		}
	}
	return nil
}

// post issues a JSON POST. A failure to reach the worker or read its
// reply is a *transportError, a reply over maxReplyBytes a plain error;
// HTTP-level failures come back as a status.
func (c *Coordinator) post(ctx context.Context, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, &transportError{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req)
}

func (c *Coordinator) get(ctx context.Context, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, &transportError{err: err}
	}
	return c.do(req)
}

// maxReplyBytes caps a worker's reply body. A larger one is not read:
// the worker answered, so it fails the request, not the worker.
const maxReplyBytes = 64 << 20

// preallocReplyBytes bounds the buffer do allocates up front from a
// declared Content-Length, so a worker that declares a large body and
// then stalls costs no more than this until its bytes arrive.
const preallocReplyBytes = 1 << 20

// do sends req and reads the reply: into one buffer of the declared
// Content-Length when that is at most preallocReplyBytes, through a
// growing buffer otherwise.
func (c *Coordinator) do(req *http.Request) (int, []byte, error) {
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, &transportError{err: err}
	}
	defer resp.Body.Close()
	if resp.ContentLength > maxReplyBytes {
		return 0, nil, fmt.Errorf("worker reply declares %d bytes, over the %d MiB cap", resp.ContentLength, maxReplyBytes>>20)
	}
	var body []byte
	if n := resp.ContentLength; n >= 0 && n <= preallocReplyBytes {
		body = make([]byte, n)
		_, err = io.ReadFull(resp.Body, body)
	} else {
		body, err = io.ReadAll(io.LimitReader(resp.Body, maxReplyBytes+1))
	}
	if err != nil {
		return 0, nil, &transportError{err: err}
	}
	if len(body) > maxReplyBytes {
		return 0, nil, fmt.Errorf("worker reply exceeds the %d MiB cap", maxReplyBytes>>20)
	}
	return resp.StatusCode, body, nil
}

// SweepInfo snapshots the coordinator's sweep in the same shape a
// worker daemon serves for GET /v1/sweeps/{id}; ok is false before Run
// has expanded a spec.
func (c *Coordinator) SweepInfo(withCells bool) (sweep.Info, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sweepID == "" {
		return sweep.Info{}, false
	}
	info := sweep.Info{
		ID:      c.sweepID,
		Created: c.started.UTC().Format(time.RFC3339Nano),
		Total:   len(c.cells),
	}
	for _, cell := range c.cells {
		st := c.states[cell.Key]
		ci := sweep.CellInfo{Experiment: cell.Experiment, Profile: cell.Profile.Name, Key: cell.Key}
		switch {
		case st.done:
			ci.Status, ci.CacheHit = runner.StatusDone, st.cacheHit
		case st.err != "":
			ci.Status, ci.Error, ci.Unsupported = runner.StatusFailed, st.err, st.unsupported
		case st.running:
			ci.Status = runner.StatusRunning
		default:
			ci.Status = runner.StatusQueued
		}
		info.Add(ci, withCells)
	}
	return info, true
}

// Handler serves the coordinator's observation surface: /healthz,
// /metrics (when reg is non-nil), and the sweep in the same
// GET /v1/sweeps and GET /v1/sweeps/{id} shapes a worker daemon
// exposes — a dashboard pointed at a worker works unchanged against
// the coordinator.
func (c *Coordinator) Handler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", c.resp.Healthz)
	mux.HandleFunc("GET /metrics", c.resp.Metrics(reg))
	mux.HandleFunc("GET /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		infos := []sweep.Info{}
		if info, ok := c.SweepInfo(false); ok {
			infos = append(infos, info)
		}
		c.resp.WriteJSON(w, http.StatusOK, map[string]any{"sweeps": infos})
	})
	mux.HandleFunc("GET /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		info, ok := c.SweepInfo(true)
		if !ok || info.ID != r.PathValue("id") {
			c.resp.WriteError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
			return
		}
		c.resp.WriteJSON(w, http.StatusOK, info)
	})
	return mux
}
