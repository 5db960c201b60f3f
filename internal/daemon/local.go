package daemon

import (
	"context"
	"net"
	"net/http"
	"time"
)

// Local is an in-process daemon on a loopback listener: the benchmark's
// serve-hot and fed-tiny workloads and the e2e tests boot the service
// this way so they measure the same handler stack, timeouts included,
// that imagebenchd ships.
type Local struct {
	*Daemon
	BaseURL string
	srv     *http.Server
}

// StartLocal boots a daemon per cfg and serves it on 127.0.0.1:0.
func StartLocal(cfg Config) (*Local, error) {
	d, err := New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, err
	}
	srv := NewHTTPServer("", d.Handler, DefaultTimeouts())
	go srv.Serve(ln)
	return &Local{
		Daemon:  d,
		BaseURL: "http://" + ln.Addr().String(),
		srv:     srv,
	}, nil
}

// Stop shuts the listener down and closes the daemon.
func (l *Local) Stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	l.srv.Shutdown(ctx)
	l.Daemon.Close()
}

// Kill severs the daemon's HTTP surface immediately — listener and
// every open connection dropped mid-request, nothing drained. This is
// the network-level equivalent of kill -9 for an in-process worker:
// peers see connection resets exactly as they would from a dead
// process. The daemon's goroutines are deliberately left running (a
// kill -9'd process computes right up to the signal too); their work
// is simply unreachable.
func (l *Local) Kill() {
	l.srv.Close()
}
