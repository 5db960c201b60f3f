package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
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
	b := jsonBufs.Get().(*jsonBuf)
	b.Reset()
	if err := b.enc.Encode(v); err != nil {
		status = http.StatusInternalServerError
		//lint:allow droppederr Encode wrote nothing, and apiError (plain strings) cannot fail
		_ = b.enc.Encode(apiError{Error: fmt.Sprintf("encode response: %v", err)})
	}
	r.writeBody(w, status, b.Bytes())
	if b.Cap() <= 64<<10 { // a big reply's buffer is left to the collector
		jsonBufs.Put(b)
	}
}

// jsonBuf encodes a reply as json.MarshalIndent(v, "", "  ") and a
// newline, HTML-escaped alike, into a buffer that later replies reuse.
type jsonBuf struct {
	bytes.Buffer
	enc *json.Encoder
}

var jsonBufs = sync.Pool{New: func() any {
	b := new(jsonBuf)
	b.enc = json.NewEncoder(&b.Buffer)
	b.enc.SetIndent("", "  ")
	return b
}}

var jsonContentType = []string{"application/json"} // every JSON reply's, shared

// writeBody sends a JSON body with the status, in one Write.
func (r *Responder) writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
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
