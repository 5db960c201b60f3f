package daemon

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"

	"imagebench/internal/obs"
)

// Responder is the response-writing half of an HTTP API: the JSON and
// error writers plus the /healthz and /metrics handlers, shared by the
// worker daemon and the federation coordinator (internal/fed) so a
// client sees one behaviour from both. Each server owns its Responder,
// so write-error accounting stays per server. The zero value is ready
// to use.
type Responder struct {
	// WriteErrors counts response bodies the server failed to write
	// (almost always a client that disconnected mid-response, e.g.
	// while parked on wait=true). The failure cannot be reported to
	// that client — the connection is gone — so it is accounted here
	// instead of being silently dropped.
	WriteErrors atomic.Int64
	// WriteErrorsTotal, when non-nil, mirrors WriteErrors into a
	// Prometheus counter.
	WriteErrorsTotal *obs.Counter
}

// WriteJSON emits v with indentation; these are operator-facing
// endpoints, so readability beats byte count. Encoding happens before
// the status line is written: an unmarshalable value must become a 500,
// not a 200 with a truncated body that a coordinator would try to
// parse. A failed body write is recorded (see WriteErrors) — by then
// the status line is on the wire and the client is usually gone, so
// accounting is all that remains.
func (r *Responder) WriteJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		// apiError is a plain string struct, so this inner marshal
		// cannot itself fail.
		status = http.StatusInternalServerError
		b, _ = json.MarshalIndent(apiError{Error: fmt.Sprintf("encode response: %v", err)}, "", "  ")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(append(b, '\n')); err != nil {
		r.noteWriteError()
	}
}

type apiError struct {
	Error string `json:"error"`
}

// WriteError emits {"error": <formatted message>} with the given status.
func (r *Responder) WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	r.WriteJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// noteWriteError accounts one failed response write.
func (r *Responder) noteWriteError() {
	r.WriteErrors.Add(1)
	if r.WriteErrorsTotal != nil {
		r.WriteErrorsTotal.Add(1)
	}
}

// Healthz serves GET /healthz.
func (r *Responder) Healthz(w http.ResponseWriter, _ *http.Request) {
	r.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Metrics serves reg in the Prometheus text exposition format (version
// 0.0.4) — the scrape target; a nil reg answers 503.
func (r *Responder) Metrics(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		if reg == nil {
			r.WriteError(w, http.StatusServiceUnavailable, "metrics registry not configured")
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WriteText(w); err != nil {
			r.noteWriteError()
		}
	}
}
