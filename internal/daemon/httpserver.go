package daemon

import (
	"net/http"
	"time"
)

// Timeouts are the connection-lifetime guards for the daemon's
// listeners. Before these existed the daemon set only
// ReadHeaderTimeout, so a client that sent headers and then stalled —
// or never read its response — pinned a connection (and its handler
// goroutine) forever; enough of them and the daemon is down without a
// single malformed request. TestStalledConnectionIsShed proves
// these fire.
type Timeouts struct {
	// ReadHeader bounds reading the request line and headers.
	ReadHeader time.Duration
	// Read bounds reading the entire request, body included. Request
	// bodies here are small JSON specs (capped at 1 MiB), so a minute
	// of allowance is generous even for a slow legitimate client.
	Read time.Duration
	// Write bounds the whole response, which for this API includes the
	// handler itself: a POST with "wait":true holds the connection
	// until every submitted job terminates. The default covers quick-
	// profile waits with a wide margin; operators running full-profile
	// sweeps with wait=true should raise -write-timeout accordingly.
	Write time.Duration
	// Idle bounds keep-alive connections between requests.
	Idle time.Duration
}

// DefaultTimeouts are the daemon's stock guards.
func DefaultTimeouts() Timeouts {
	return Timeouts{
		ReadHeader: 10 * time.Second,
		Read:       time.Minute,
		Write:      15 * time.Minute,
		Idle:       2 * time.Minute,
	}
}

// NewHTTPServer returns an http.Server for handler with every timeout
// class set. Both of imagebenchd's listeners (API and pprof) are built
// through this, so neither can regress to timeout-less again.
func NewHTTPServer(addr string, handler http.Handler, t Timeouts) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: t.ReadHeader,
		ReadTimeout:       t.Read,
		WriteTimeout:      t.Write,
		IdleTimeout:       t.Idle,
	}
}
