package obs

import (
	"strings"
	"testing"
)

// expose renders the registry and returns its exposition text.
func expose(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// mustLine asserts the exposition contains the exact line.
func mustLine(t *testing.T, text, line string) {
	t.Helper()
	for _, l := range strings.Split(text, "\n") {
		if l == line {
			return
		}
	}
	t.Errorf("exposition missing line %q:\n%s", line, text)
}

func TestHistogramBucketMath(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("req_seconds", "Request latency.", []float64{1, 2, 5})

	// Boundary values are inclusive (Prometheus le semantics): an
	// observation equal to a bound lands in that bound's bucket.
	for _, v := range []float64{0.5, 1, 1.5, 2, 10} {
		h.Observe(v)
	}

	text := expose(t, r)
	mustLine(t, text, `req_seconds_bucket{le="1"} 2`)
	mustLine(t, text, `req_seconds_bucket{le="2"} 4`)
	mustLine(t, text, `req_seconds_bucket{le="5"} 4`)
	mustLine(t, text, `req_seconds_bucket{le="+Inf"} 5`)
	mustLine(t, text, `req_seconds_sum 15`)
	mustLine(t, text, `req_seconds_count 5`)
	mustLine(t, text, `# TYPE req_seconds histogram`)
}

func TestHistogramValidation(t *testing.T) {
	r := NewRegistry()
	for name, bounds := range map[string][]float64{
		"empty":      {},
		"descending": {2, 1},
		"duplicate":  {1, 1},
		"infinite":   {1, inf()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%s bounds) did not panic", name)
				}
			}()
			r.NewHistogram("bad_"+name, "", bounds)
		}()
	}
}

func inf() float64  { return 1.0 / zero() }
func zero() float64 { return 0 }

func TestExpositionEscaping(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("ops_total", "Ops with\nnewline and back\\slash.", "op")
	cv.With("quote\"back\\slash\nnewline").Add(3)

	text := expose(t, r)
	mustLine(t, text, `# HELP ops_total Ops with\nnewline and back\\slash.`)
	mustLine(t, text, `ops_total{op="quote\"back\\slash\nnewline"} 3`)
}

func TestRegistryGetOrCreateAndShapePanic(t *testing.T) {
	r := NewRegistry()
	c1 := r.NewCounter("jobs_total", "x")
	c2 := r.NewCounter("jobs_total", "x")
	c1.Inc()
	c2.Add(2)
	if got := c1.Value(); got != 3 {
		t.Errorf("re-registered counter not shared: %v", got)
	}

	defer func() {
		if recover() == nil {
			t.Error("re-registering jobs_total as a gauge did not panic")
		}
	}()
	r.NewGaugeFunc("jobs_total", "x", func() float64 { return 0 })
}

func TestVecSeriesShareStorage(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("hits_total", "h", "layer")
	cv.With("memory").Inc()
	cv.With("memory").Add(2)
	cv.With("disk").Inc()
	if got := cv.With("memory").Value(); got != 3 {
		t.Errorf("memory series = %v, want 3", got)
	}
	text := expose(t, r)
	mustLine(t, text, `hits_total{layer="disk"} 1`)
	mustLine(t, text, `hits_total{layer="memory"} 3`)
}

func TestCounterVecWithFunc(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("cache_hits_total", "h", "layer")
	n := 7.0
	cv.WithFunc(func() float64 { return n }, "memory")
	text := expose(t, r)
	mustLine(t, text, `cache_hits_total{layer="memory"} 7`)
	n = 9
	mustLine(t, expose(t, r), `cache_hits_total{layer="memory"} 9`)
}

func TestFamiliesSortedByName(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("zzz_total", "")
	r.NewCounter("aaa_total", "")
	text := expose(t, r)
	if strings.Index(text, "aaa_total") > strings.Index(text, "zzz_total") {
		t.Errorf("families not sorted:\n%s", text)
	}
}

func TestInvalidMetricNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("invalid metric name did not panic")
		}
	}()
	r.NewCounter("bad-name", "")
}
