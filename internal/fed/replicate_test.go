package fed

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"imagebench/internal/daemon"
	"imagebench/internal/obs"
	"imagebench/internal/sweep"
)

// hookTransport runs before on every replication POST, then forwards.
type hookTransport struct {
	before func(req *http.Request)
	next   http.RoundTripper
}

func (h *hookTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost && req.URL.Path == "/v1/results" {
		h.before(req)
	}
	return h.next.RoundTrip(req)
}

func hookedClient(t *testing.T, before func(req *http.Request)) *http.Client {
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: &hookTransport{before: before, next: tr}}
}

// TestRunReturnsOnlyAfterReplicationDrained slows every replication
// request down so the replicators lag far behind the executors: when
// Run returns, every worker must serve every key all the same, and the
// counter must have counted entries, not requests.
func TestRunReturnsOnlyAfterReplicationDrained(t *testing.T) {
	workers := startWorkers(t, 3)
	var mu sync.Mutex
	posts := 0
	client := hookedClient(t, func(*http.Request) {
		mu.Lock()
		posts++
		mu.Unlock()
		time.Sleep(30 * time.Millisecond)
	})
	fm := obs.NewFedMetrics(obs.NewRegistry())
	coord, err := New(Config{Workers: workerURLs(workers), Metrics: fm, Client: client})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	spec := sweep.Spec{Experiments: []string{"zz-fed-*"}, Overrides: nodeOverrides(5)} // 30 cells
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := coord.Run(ctx, spec)
	if err != nil || len(res.Failed) != 0 {
		t.Fatalf("run: err=%v failed=%v", err, res.Failed)
	}
	for i, w := range workers {
		if got := len(w.Cache.Keys()); got != 30 {
			t.Errorf("worker %d serves %d keys when Run returns, want 30", i, got)
		}
	}
	var replicated float64
	for _, u := range workerURLs(workers) {
		replicated += fm.Replications.With(u).Value()
	}
	if replicated != 60 {
		t.Errorf("replications = %v, want 60: each of 30 entries to its 2 peers", replicated)
	}
	if posts >= 60 {
		t.Errorf("%d replication requests for 60 entries: nothing was batched behind a 30 ms request", posts)
	}
}

// TestPeerKilledWithABatchInFlight: the peer dies under the replication
// request itself. It is declared down once, Run still returns, nothing
// fails, and the artifact is the single-node one.
func TestPeerKilledWithABatchInFlight(t *testing.T) {
	workers := startWorkers(t, 3)
	victim := workers[2]
	var once sync.Once
	client := hookedClient(t, func(req *http.Request) {
		if "http://"+req.URL.Host == victim.BaseURL {
			once.Do(victim.Kill)
		}
	})
	fm := obs.NewFedMetrics(obs.NewRegistry())
	journal := filepath.Join(t.TempDir(), "assign.jsonl")
	coord, err := New(Config{Workers: workerURLs(workers), Metrics: fm, Client: client, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	spec := sweep.Spec{Experiments: []string{"zz-fed-*"}, Overrides: nodeOverrides(5)}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := coord.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 || len(res.Entries) != 30 {
		t.Fatalf("%d entries, failed %v; want 30 and none", len(res.Entries), res.Failed)
	}
	if v := fm.WorkerFailures.With(victim.BaseURL).Value(); v != 1 {
		t.Errorf("victim declared down %v times, want once", v)
	}
	recs, err := ReadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	downs := 0
	for _, r := range recs {
		if r.Op == OpWorkerDown {
			downs++
		}
	}
	if downs != 1 {
		t.Errorf("journal holds %d worker-down records, want 1", downs)
	}
	for i, w := range workers[:2] {
		if got := len(w.Cache.Keys()); got != 30 {
			t.Errorf("survivor %d serves %d keys, want 30", i, got)
		}
	}
	var art bytes.Buffer
	if err := res.WriteArtifact(&art); err != nil {
		t.Fatal(err)
	}
	if single := singleNodeCanonical(t, spec); !bytes.Equal(art.Bytes(), single) {
		t.Errorf("federated artifact (%d bytes) differs from single-node artifact (%d bytes)", art.Len(), len(single))
	}
}

// TestReplicationBatchesStayUnderTheIngestCap drives one replicator
// over a queue of large bodies: requests are filled up to the worker's
// ingest cap and never past it, and an entry that alone exceeds the cap
// still goes, alone, and is refused as it always was.
func TestReplicationBatchesStayUnderTheIngestCap(t *testing.T) {
	var sizes []int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, err := io.Copy(io.Discard, http.MaxBytesReader(w, r.Body, daemon.MaxIngestBytes))
		if err != nil {
			n = r.ContentLength
			w.WriteHeader(http.StatusRequestEntityTooLarge)
		} else {
			w.WriteHeader(http.StatusCreated)
		}
		sizes = append(sizes, n) // one replicator: requests arrive one at a time
	}))
	defer peer.Close()

	fm := obs.NewFedMetrics(obs.NewRegistry())
	var logged []string
	c, err := New(Config{Workers: []string{peer.URL, "http://127.0.0.1:1"}, Metrics: fm,
		Logf: func(format string, args ...any) { logged = append(logged, format) }})
	if err != nil {
		t.Fatal(err)
	}
	const mib = 1 << 20
	three, nine := make([]byte, 3*mib), make([]byte, 9*mib)
	c.repl = map[string][][]byte{peer.URL: {three, three, three, nine, three}}
	c.dead = map[string]bool{}
	c.replDone = true
	c.replicator(context.Background(), peer.URL)

	want := []int64{6 * mib, 3 * mib, 9 * mib, 3 * mib}
	if len(sizes) != len(want) {
		t.Fatalf("request sizes %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Errorf("request %d carried %d bytes, want %d", i, sizes[i], want[i])
		}
		if i != 2 && sizes[i] > daemon.MaxIngestBytes {
			t.Errorf("request %d exceeds the ingest cap", i)
		}
	}
	if v := fm.Replications.With(peer.URL).Value(); v != 4 {
		t.Errorf("replications = %v, want 4: the oversized entry was refused", v)
	}
	if len(logged) != 1 || c.dead[peer.URL] {
		t.Errorf("the refusal should be logged once and leave the peer up: log %q, dead %v", logged, c.dead[peer.URL])
	}
	if _, queued := c.repl[peer.URL]; queued {
		t.Error("replicator returned with its queue still registered")
	}
}

// TestCanceledRunLeavesNoReplicator: Run returns the context's error and
// takes its replicator goroutines with it, whether they were parked
// waiting for entries or inside a request.
func TestCanceledRunLeavesNoReplicator(t *testing.T) {
	workers := startWorkers(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	client := hookedClient(t, func(req *http.Request) {
		cancel() // the first replication request cancels the sweep under itself
	})
	coord, err := New(Config{Workers: workerURLs(workers), Client: client})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	done := make(chan error, 1)
	go func() {
		_, err := coord.Run(ctx, sweep.Spec{Experiments: []string{"zz-fed-*"}, Overrides: nodeOverrides(10)})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after its context was canceled")
	}
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "(*Coordinator).replicator") {
		t.Errorf("a replicator goroutine outlived Run:\n%s", stacks)
	}
}

// TestSecondRunStartsWithACleanJournalError: the first journal failure
// is per sweep. Pre-fix it was never reset, so every later Run on the
// coordinator reported the first one's.
func TestSecondRunStartsWithACleanJournalError(t *testing.T) {
	workers := startWorkers(t, 2)
	coord, err := New(Config{Workers: workerURLs(workers)})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.journalErr = errors.New("disk full during the previous sweep")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := coord.Run(ctx, sweep.Spec{Experiments: []string{"zz-fed-a"}, Overrides: nodeOverrides(2)})
	if err != nil || len(res.Entries) != 2 {
		t.Fatalf("second run: err=%v entries=%d, want a clean run", err, len(res.Entries))
	}
}
