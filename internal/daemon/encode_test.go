package daemon

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/results"
	"imagebench/internal/runner"
	"imagebench/internal/sweep"
)

// Tests and a benchmark for the encode-once reply path: every JSON reply
// is json.MarshalIndent(v, "", "  ") and a newline, whether WriteJSON
// encodes it or the result cache holds it (results.Cache.JSON).

// gridTable is a rows x cols table of distinct values.
func gridTable(rows, cols int) *core.Table {
	rs, cs := make([]string, rows), make([]string, cols)
	for i := range rs {
		rs[i] = fmt.Sprintf("r%d", i)
	}
	for j := range cs {
		cs[j] = fmt.Sprintf("c%d", j)
	}
	t := core.NewTable("grid <&>", "virtual s", rs, cs)
	for i, r := range rs {
		for j, c := range cs {
			t.Set(r, c, float64(i)*1.25+float64(j)/3)
		}
	}
	return t
}

// gridEntry is a cache entry holding gridTable(rows, cols), keyed as
// experiment zz-test-http under the quick profile with n nodes.
func gridEntry(rows, cols, n int) *results.Entry {
	p := core.Quick().Apply(core.Overrides{ClusterNodes: []int{n}})
	return &results.Entry{Key: results.Key("zz-test-http", p), Experiment: "zz-test-http",
		Profile: p, Table: gridTable(rows, cols)}
}

// indented is the reply body for v: json.MarshalIndent and a newline.
func indented(t testing.TB, v any) string {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// contractServer is the daemon's handler over a cache, with the
// scheduler and sweep manager behind it.
type contractServer struct {
	h      http.Handler
	sched  *runner.Scheduler
	cache  *results.Cache
	sweeps *sweep.Manager
}

func newContractServer(t testing.TB, cache *results.Cache) *contractServer {
	t.Helper()
	registerFakes()
	sched := runner.New(runner.Options{Workers: 2, Cache: cache})
	t.Cleanup(sched.Close)
	sweeps, err := sweep.NewManager(sched, "", time.Now)
	if err != nil {
		t.Fatal(err)
	}
	return &contractServer{newServer(sched, cache, sweeps, nil), sched, cache, sweeps}
}

// do serves one request and returns the recorded response.
func (c *contractServer) do(method, path, body, accept string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(method, path, strings.NewReader(body))
	if accept != "" {
		r.Header.Set("Accept", accept)
	}
	w := httptest.NewRecorder()
	c.h.ServeHTTP(w, r)
	return w
}

// checkReply fails unless w is a JSON reply with the status whose body
// is want, byte for byte.
func checkReply(t *testing.T, name string, w *httptest.ResponseRecorder, status int, want string) {
	t.Helper()
	if w.Code != status {
		t.Errorf("%s: status %d, want %d (body %q)", name, w.Code, status, w.Body.String())
	}
	if ct := w.Header()["Content-Type"]; len(ct) != 1 || ct[0] != "application/json" {
		t.Errorf("%s: Content-Type %q, want application/json", name, ct)
	}
	if got := w.Body.String(); got != want {
		t.Errorf("%s: body\n%s\nwant\n%s", name, got, want)
	}
}

// TestJSONRepliesAreMarshalIndent holds every JSON endpoint's bytes to
// json.MarshalIndent(v, "", "  ") and a newline of the value it serves,
// with Content-Type application/json: the success replies, the
// 400/404/413 errors and an encode failure's 500.
func TestJSONRepliesAreMarshalIndent(t *testing.T) {
	cache, err := results.Open("")
	if err != nil {
		t.Fatal(err)
	}
	c := newContractServer(t, cache)

	w := c.do("POST", "/v1/jobs", `{"experiments":["zz-test-http"],"wait":true}`, "")
	jobID := jobIDOf(t, w.Body.Bytes())
	j, ok := c.sched.Job(jobID)
	if !ok {
		t.Fatalf("submit reply names unknown job %q", jobID)
	}
	checkReply(t, "submit", w, http.StatusOK, indented(t, map[string]any{"jobs": []runner.Info{j.Snapshot()}}))
	checkReply(t, "job", c.do("GET", "/v1/jobs/"+jobID, "", ""), http.StatusOK, indented(t, j.Snapshot()))
	checkReply(t, "jobs", c.do("GET", "/v1/jobs", "", ""), http.StatusOK,
		indented(t, map[string]any{"jobs": snapshotJobs(c.sched.Jobs())}))

	key := j.Snapshot().ResultKey
	entry, ok := cache.Peek(key)
	if !ok {
		t.Fatal("the job's result is not cached")
	}
	checkReply(t, "result", c.do("GET", "/v1/results/"+key, "", ""), http.StatusOK, indented(t, entry))
	checkReply(t, "result again", c.do("GET", "/v1/results/"+key, "", ""), http.StatusOK, indented(t, entry))
	checkReply(t, "result keys", c.do("GET", "/v1/results", "", ""), http.StatusOK,
		indented(t, map[string]any{"keys": cache.Keys()}))

	w = c.do("POST", "/v1/sweeps", `{"experiments":["zz-test-http"],"overrides":[{"clusterNodes":[4]},{"clusterNodes":[8]}],"wait":true}`, "")
	list := c.sweeps.List()
	if len(list) != 1 {
		t.Fatalf("%d sweeps after one submit", len(list))
	}
	sw := list[0]
	checkReply(t, "sweep submit", w, http.StatusOK, indented(t, sw.Info(true)))
	checkReply(t, "sweep", c.do("GET", "/v1/sweeps/"+sw.ID, "", ""), http.StatusOK, indented(t, sw.Info(true)))
	checkReply(t, "sweeps", c.do("GET", "/v1/sweeps", "", ""), http.StatusOK,
		indented(t, map[string]any{"sweeps": []sweep.Info{sw.Info(false)}}))
	checkReply(t, "healthz", c.do("GET", "/healthz", "", ""), http.StatusOK, indented(t, map[string]string{"status": "ok"}))

	_, perr := core.ProfileByName("nope")
	checkReply(t, "400", c.do("POST", "/v1/jobs", `{"experiments":["zz-test-http"],"profile":"nope"}`, ""),
		http.StatusBadRequest, indented(t, apiError{perr.Error()}))
	checkReply(t, "404 job", c.do("GET", "/v1/jobs/job-nope", "", ""),
		http.StatusNotFound, indented(t, apiError{`unknown job "job-nope"`}))
	missing := strings.Repeat("0", 64)
	checkReply(t, "404 result", c.do("GET", "/v1/results/"+missing, "", ""),
		http.StatusNotFound, indented(t, apiError{fmt.Sprintf("no cached result for key %q", missing)}))
	big := `{"experiments":["` + strings.Repeat("x", maxRequestBytes) + `"]}`
	checkReply(t, "413", c.do("POST", "/v1/jobs", big, ""),
		http.StatusRequestEntityTooLarge, indented(t, apiError{fmt.Sprintf("request body exceeds %d bytes", maxRequestBytes)}))

	// A table that cannot be encoded (an infinite cell) is a 500, from
	// the result endpoint as from WriteJSON, and nothing is held for it.
	inf := gridEntry(1, 1, 3)
	inf.Table.Set("r0", "c0", math.Inf(1))
	if err := cache.Put(inf); err != nil {
		t.Fatal(err)
	}
	_, merr := json.MarshalIndent(inf, "", "  ")
	for i := 0; i < 2; i++ {
		checkReply(t, "500 result", c.do("GET", "/v1/results/"+inf.Key, "", ""),
			http.StatusInternalServerError, indented(t, apiError{"encode response: " + merr.Error()}))
	}
	ch := map[string]any{"ch": make(chan int)}
	_, merr = json.MarshalIndent(ch, "", "  ")
	w = httptest.NewRecorder()
	new(Responder).WriteJSON(w, http.StatusOK, ch)
	checkReply(t, "500 WriteJSON", w, http.StatusInternalServerError, indented(t, apiError{"encode response: " + merr.Error()}))
}

// jobIDOf is the first job's ID in a submit reply.
func jobIDOf(t *testing.T, body []byte) string {
	t.Helper()
	var out struct {
		Jobs []runner.Info `json:"jobs"`
	}
	if err := json.Unmarshal(body, &out); err != nil || len(out.Jobs) == 0 {
		t.Fatalf("submit reply %q: %v", body, err)
	}
	return out.Jobs[0].ID
}

// TestResultBodyFromMemoryAndDisk serves one result read through from
// disk and then from memory: the JSON bytes are the same either way,
// the text/plain rendering is unchanged, and each GET moves exactly one
// of the cache's memory-hit, disk-hit and miss counters by one.
func TestResultBodyFromMemoryAndDisk(t *testing.T) {
	dir := t.TempDir()
	e := gridEntry(3, 4, 5)
	first, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Put(e); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	cache, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	c := newContractServer(t, cache)

	text := fmt.Sprintf("# %s  (profile %s, key %s)\n%s", e.Experiment, e.Profile.Name, e.Key, e.Table.Render())
	missing := strings.Repeat("f", 64)
	steps := []struct {
		name, key, accept string
		layer             string // the counter the GET must move
	}{
		{"disk read-through", e.Key, "", "disk"},
		{"memory", e.Key, "", "memory"},
		{"memory again", e.Key, "application/json", "memory"},
		{"text/plain", e.Key, "text/plain", "memory"},
		{"miss", missing, "", "miss"},
	}
	for _, s := range steps {
		before := cache.Stats()
		w := c.do("GET", "/v1/results/"+s.key, "", s.accept)
		switch {
		case s.layer == "miss":
			checkReply(t, s.name, w, http.StatusNotFound, indented(t, apiError{fmt.Sprintf("no cached result for key %q", s.key)}))
		case s.accept == "text/plain":
			if ct := w.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" || w.Body.String() != text {
				t.Errorf("%s: Content-Type %q, body\n%s\nwant\n%s", s.name, ct, w.Body.String(), text)
			}
		default:
			checkReply(t, s.name, w, http.StatusOK, indented(t, e))
		}
		after := cache.Stats()
		moved := map[string]int64{"memory": after.MemHits - before.MemHits,
			"disk": after.DiskHits - before.DiskHits, "miss": after.Misses - before.Misses}
		for layer, n := range moved {
			if want := map[bool]int64{true: 1}[layer == s.layer]; n != want {
				t.Errorf("%s: %s counter moved by %d, want %d", s.name, layer, n, want)
			}
		}
	}
}

// TestResultBodyUnderConcurrentFirstEncode has 16 readers GET one key
// while its first encode and a duplicate Put of the key are in flight:
// every reader gets the same bytes.
func TestResultBodyUnderConcurrentFirstEncode(t *testing.T) {
	cache, err := results.Open("")
	if err != nil {
		t.Fatal(err)
	}
	e := gridEntry(200, 20, 6)
	if err := cache.Put(e); err != nil {
		t.Fatal(err)
	}
	c := newContractServer(t, cache)
	want := indented(t, e)
	const readers = 16
	start := make(chan struct{})
	bodies := make([]string, readers)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			w := c.do("GET", "/v1/results/"+e.Key, "", "")
			bodies[i] = w.Body.String()
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if err := cache.Put(gridEntry(200, 20, 6)); err != nil {
			t.Error(err)
		}
	}()
	close(start)
	wg.Wait()
	for i, b := range bodies {
		if b != want {
			t.Errorf("reader %d got %d bytes that differ from the entry's %d", i, len(b), len(want))
		}
	}
	if got := c.do("GET", "/v1/results/"+e.Key, "", "").Body.String(); got != want {
		t.Error("the body after the race differs from the entry's")
	}
}

// discardWriter is a ResponseWriter that keeps its header map and drops
// the body, so a measured request allocates only what the server does.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// resultHit is a warm cache-hit JSON GET of e's result, repeatable.
func resultHit(tb testing.TB, c *contractServer, e *results.Entry) func() {
	tb.Helper()
	if err := c.cache.Put(e); err != nil {
		tb.Fatal(err)
	}
	r := httptest.NewRequest("GET", "/v1/results/"+e.Key, nil)
	w := &discardWriter{h: http.Header{}}
	c.h.ServeHTTP(w, r) // the first read encodes
	return func() { c.h.ServeHTTP(w, r) }
}

// TestResultHitAllocsConstantInTableSize: a cache-hit JSON GET of a
// result sends the bytes held with the entry, so it allocates as often
// for a 2,000-cell table as for a 2-cell one.
func TestResultHitAllocsConstantInTableSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	cache, err := results.Open("")
	if err != nil {
		t.Fatal(err)
	}
	c := newContractServer(t, cache)
	small := testing.AllocsPerRun(200, resultHit(t, c, gridEntry(1, 2, 7)))
	large := testing.AllocsPerRun(200, resultHit(t, c, gridEntry(100, 20, 9)))
	if small != large {
		t.Errorf("a cache-hit GET allocates %.1f times for 2 cells, %.1f for 2,000", small, large)
	}
}

// BenchmarkResultHit is one warm cache-hit JSON GET /v1/results/{key}
// of a 2,000-cell table through the daemon's handler.
func BenchmarkResultHit(b *testing.B) {
	cache, err := results.Open("")
	if err != nil {
		b.Fatal(err)
	}
	hit := resultHit(b, newContractServer(b, cache), gridEntry(100, 20, 9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit()
	}
}
