package daemon

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/obs"
	"imagebench/internal/results"
)

// errorWriter is a ResponseWriter whose body writes always fail — the
// deterministic stand-in for a client that disconnected mid-response
// (real closed-socket writes only fail once kernel buffers drain, so
// they cannot be asserted on reliably).
type errorWriter struct {
	header http.Header
	status int
}

func (w *errorWriter) Header() http.Header {
	if w.header == nil {
		w.header = http.Header{}
	}
	return w.header
}

func (w *errorWriter) WriteHeader(status int) { w.status = status }

func (w *errorWriter) Write([]byte) (int, error) {
	return 0, errors.New("client gone: broken pipe")
}

// TestResponseWriteErrorAccounting drives every daemon response path
// that can lose a body write against a failing writer and requires each
// one to land in the WriteErrors counter instead of vanishing.
func TestResponseWriteErrorAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	cache, err := results.Open("")
	if err != nil {
		t.Fatal(err)
	}
	profile, err := core.ProfileByName("quick")
	if err != nil {
		t.Fatal(err)
	}
	table := core.NewTable("seeded", "virtual s", []string{"r"}, []string{"c"})
	table.Set("r", "c", 1)
	entry := &results.Entry{
		Key:        results.Key("zz-test-http", profile),
		Experiment: "zz-test-http",
		Profile:    profile,
		Table:      table,
	}
	if err := cache.Put(entry); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		serve func(s *server, w http.ResponseWriter)
	}{
		{"writeJSON", func(s *server, w http.ResponseWriter) {
			s.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		}},
		{"writeError", func(s *server, w http.ResponseWriter) {
			s.WriteError(w, http.StatusRequestTimeout, "client went away while waiting")
		}},
		{"prom metrics WriteText", func(s *server, w http.ResponseWriter) {
			r := httptest.NewRequest("GET", "/metrics", nil)
			s.Metrics(reg)(w, r)
		}},
		{"result plain-text render", func(s *server, w http.ResponseWriter) {
			r := httptest.NewRequest("GET", "/v1/results/"+entry.Key, nil)
			r.SetPathValue("key", entry.Key)
			r.Header.Set("Accept", "text/plain")
			s.handleResult(w, r)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := &server{cache: cache, start: time.Now()}
			c.serve(s, &errorWriter{})
			if got := s.WriteErrors.Load(); got != 1 {
				t.Errorf("WriteErrors = %d after failed write, want 1", got)
			}
			// The same response on a healthy writer is not an error.
			s2 := &server{cache: cache, start: time.Now()}
			c.serve(s2, httptest.NewRecorder())
			if got := s2.WriteErrors.Load(); got != 0 {
				t.Errorf("WriteErrors = %d after successful write, want 0", got)
			}
		})
	}
}

var (
	slowRuns  atomic.Int64
	slowOnce  sync.Once
	slowDelay = 400 * time.Millisecond
)

func registerSlowFake() {
	slowOnce.Do(func() {
		core.Register(&core.Experiment{
			ID: "zz-test-slow", Title: "fake slow", Paper: "n/a",
			Run: func(ctx context.Context, p core.Profile) (*core.Table, error) {
				slowRuns.Add(1)
				time.Sleep(slowDelay)
				tb := core.NewTable("slow", "virtual s", []string{"r"}, []string{"c"})
				tb.Set("r", "c", 1)
				return tb, nil
			},
			Check: func(*core.Table) error { return nil },
		})
	})
}

// TestClientDisconnectMidWait submits wait=true work on each parking
// endpoint, kills the client while the handler is parked, and requires
// that the daemon (a) unparks promptly instead of leaking the handler
// until job completion, (b) stays healthy, and (c) finishes the
// orphaned work anyway — the disconnect must cost the client its
// response, never the daemon its job.
func TestClientDisconnectMidWait(t *testing.T) {
	registerSlowFake()
	cases := []struct {
		name string
		path string
		body string
	}{
		{"jobs wait", "/v1/jobs", `{"experiments":["zz-test-slow"],"profile":"quick","wait":true}`},
		{"sweeps wait", "/v1/sweeps", `{"experiments":["zz-test-slow"],"profiles":["quick","full"],"wait":true}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ts, sched, _ := newTestServer(t)

			ctx, cancel := context.WithCancel(context.Background())
			req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+c.path,
				bytes.NewReader([]byte(c.body)))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")

			done := make(chan error, 1)
			start := time.Now()
			go func() {
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					resp.Body.Close()
					err = errors.New("request succeeded despite cancellation")
				}
				done <- err
			}()
			// Let the handler park on the wait, then yank the client.
			time.Sleep(50 * time.Millisecond)
			cancel()

			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("client error = %v, want context.Canceled", err)
				}
			case <-time.After(slowDelay):
				t.Fatal("client still blocked after cancellation")
			}
			if elapsed := time.Since(start); elapsed >= slowDelay {
				t.Errorf("handler held the connection %v, want prompt unpark on disconnect", elapsed)
			}

			// The daemon survived the disconnect...
			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("healthz after disconnect: resp=%v err=%v", resp, err)
			}
			resp.Body.Close()

			// ...and the orphaned work still runs to completion.
			deadline := time.Now().Add(10 * slowDelay)
			for {
				st := sched.Stats()
				if st.InFlight == 0 && st.Executed > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("orphaned work never finished: %+v", st)
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}
