package daemon

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"imagebench/internal/core"
	"imagebench/internal/results"
)

// ingestEntry builds a well-formed replicated entry, distinct per n.
func ingestEntry(n int) *results.Entry {
	p := core.Quick().Apply(core.Overrides{ClusterNodes: []int{n + 2}})
	tab := core.NewTable("ingested", "virtual s", []string{"r"}, []string{"c"})
	tab.Set("r", "c", float64(n))
	return &results.Entry{Key: results.Key("zz-test-http", p), Experiment: "zz-test-http", Profile: p, Table: tab}
}

func entryStream(t testing.TB, entries ...*results.Entry) string {
	t.Helper()
	var sb strings.Builder
	for _, e := range entries {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(b)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestSingleValueEndpointsRejectTrailingBytes: a job or sweep body is
// one JSON value; anything after it is a garbled request, not a request
// plus noise. Pre-fix `{...}garbage` submitted a job.
func TestSingleValueEndpointsRejectTrailingBytes(t *testing.T) {
	ts, sched, _ := newTestServer(t)
	job := `{"experiments":["zz-test-http"]}`
	sw := `{"experiments":["zz-test-http"],"profiles":["quick"]}`
	for _, c := range []struct{ path, body string }{
		{"/v1/jobs", job + "garbage"},
		{"/v1/jobs", job + job},
		{"/v1/jobs", job + "\n}"},
		{"/v1/sweeps", sw + "garbage"},
		{"/v1/sweeps", sw + " " + sw},
	} {
		resp, raw, _ := postRaw(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %q = %d, want 400: %s", c.path, c.body, resp.StatusCode, raw)
		}
	}
	if st := sched.Stats(); st.Submitted != 0 {
		t.Errorf("%d jobs submitted from bodies with trailing bytes, want 0", st.Submitted)
	}
	// Trailing whitespace is not a second value.
	if resp, raw, _ := postRaw(t, ts.URL+"/v1/jobs", job+" \n\t\n"); resp.StatusCode != http.StatusAccepted {
		t.Errorf("body with trailing whitespace = %d, want 202: %s", resp.StatusCode, raw)
	}
	if resp, raw, _ := postRaw(t, ts.URL+"/v1/sweeps", sw+"\n"); resp.StatusCode != http.StatusAccepted {
		t.Errorf("sweep body with a trailing newline = %d, want 202: %s", resp.StatusCode, raw)
	}
}

// TestResultIngestStream: POST /v1/results reads a stream of entries,
// validates every one before storing any, and stores them as one group
// of the cache's log; the log's counters are on /metrics.
func TestResultIngestStream(t *testing.T) {
	registerFakes()
	d, err := New(Config{Workers: 1, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ts := httptest.NewServer(d.Handler)
	defer ts.Close()

	good := []*results.Entry{ingestEntry(0), ingestEntry(1), ingestEntry(2)}
	forged := *ingestEntry(3)
	forged.Key = strings.Repeat("ab", 32)
	noTable := *ingestEntry(4)
	noTable.Table = nil
	for name, body := range map[string]string{
		"a forged key last":  entryStream(t, good[0], good[1], &forged),
		"a forged key first": entryStream(t, &forged, good[0]),
		"a missing table":    entryStream(t, good[0], &noTable, good[1]),
		"trailing garbage":   entryStream(t, good[0], good[1]) + "garbage",
		"a torn last entry":  entryStream(t, good[0]) + entryStream(t, good[1])[:40],
		"an unknown field":   entryStream(t, good[0]) + `{"key":"x","tabel":null}`,
		"an empty body":      "",
		"only whitespace":    " \n",
	} {
		resp, raw, _ := postRaw(t, ts.URL+"/v1/results", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("stream with %s = %d, want 400: %s", name, resp.StatusCode, raw)
		}
		if n := len(d.Cache.Keys()); n != 0 {
			t.Fatalf("stream with %s stored %d entries, want none", name, n)
		}
	}

	resp, raw, _ := postRaw(t, ts.URL+"/v1/results", entryStream(t, good...))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("ingest status = %d: %s", resp.StatusCode, raw)
	}
	var out struct{ Keys []string }
	if err := json.Unmarshal(raw, &out); err != nil || len(out.Keys) != 3 || out.Keys[2] != good[2].Key {
		t.Errorf("ingest answered %s, want the three keys in order", raw)
	}
	for _, e := range good {
		if got, ok := d.Cache.Get(e.Key); !ok || got.Table.Get("r", "c") != e.Table.Get("r", "c") {
			t.Errorf("entry %.12s of the stream not in the cache", e.Key)
		}
	}
	if st := d.Cache.Stats(); st.LogRecords != 3 || st.LogFsyncs != 1 {
		t.Errorf("cache stats after one stream = %+v, want 3 records in 1 fsync", st)
	}
	// The same stream again is all duplicates: accepted, nothing appended.
	if resp, _, _ := postRaw(t, ts.URL+"/v1/results", entryStream(t, good...)); resp.StatusCode != http.StatusCreated {
		t.Errorf("repeated ingest status = %d, want 201", resp.StatusCode)
	}
	if st := d.Cache.Stats(); st.LogRecords != 3 || st.LogFsyncs != 1 {
		t.Errorf("cache stats after a duplicate stream = %+v, want them unmoved", st)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"imagebench_cache_log_records_total 3", "imagebench_cache_log_fsyncs_total 1"} {
		if !strings.Contains(string(text), line+"\n") {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

// FuzzResultIngest posts arbitrary bodies to POST /v1/results: the
// handler never panics, and a body is stored whole or not at all — a
// 201 means every entry it held is cached under its content key, any
// other answer means the cache is as it was.
func FuzzResultIngest(f *testing.F) {
	registerFakes()
	a, b := ingestEntry(0), ingestEntry(1)
	forged := *ingestEntry(2)
	forged.Key = strings.Repeat("cd", 32)
	f.Add(entryStream(f, a))
	f.Add(entryStream(f, a, b))
	f.Add(entryStream(f, a, &forged))
	f.Add(entryStream(f, a) + "garbage")
	f.Add(entryStream(f, a, b)[:150])
	f.Add(`{"key":"","experiment":"","profile":{},"table":null}`)
	f.Add("")
	f.Fuzz(func(t *testing.T, body string) {
		cache, err := results.Open("")
		if err != nil {
			t.Fatal(err)
		}
		h := newServer(nil, cache, nil, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/results", strings.NewReader(body)))
		keys := cache.Keys()
		if rec.Code != http.StatusCreated {
			if len(keys) != 0 {
				t.Fatalf("status %d but %d entries stored", rec.Code, len(keys))
			}
			return
		}
		if len(keys) == 0 {
			t.Fatal("201 with nothing stored")
		}
		for _, k := range keys {
			e, _ := cache.Get(k)
			if e.Table == nil || e.Key != k || results.Key(e.Experiment, e.Profile) != k {
				t.Fatalf("stored entry %.12s does not validate", k)
			}
		}
	})
}
