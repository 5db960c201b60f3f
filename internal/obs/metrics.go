// Package obs is the observability spine of the reproduction: a
// span-based tracer that is dual-clock aware (every span carries wall
// time and, when opened inside the cluster simulator, a virtual-time
// window) plus a stdlib-only metrics registry that serves the
// Prometheus text exposition format. The daemon scrapes the registry at
// GET /metrics; the CLI dumps the tracer as Chrome trace-event JSON
// loadable in Perfetto. Nothing here perturbs the simulation: spans are
// allocated only when a Tracer is present in the context, and metrics
// are atomics sampled at scrape time.
package obs

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// atomicFloat is a float64 with atomic add/load, for counters and sums
// updated from concurrent workers without a lock.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// metricFamily is one named metric with HELP/TYPE metadata and any
// number of label-distinguished series.
type metricFamily interface {
	meta() (name, help, typ string)
	// sample appends "name{labels} value" exposition lines (without the
	// trailing newline handled by the writer) via emit.
	sample(emit func(suffix, labels string, value float64))
}

// Registry holds metric families and serves them in Prometheus text
// exposition format. Registration is get-or-create: asking twice for
// the same name with the same shape returns the same metric; asking
// with a conflicting shape panics (a programming error, like expvar).
type Registry struct {
	mu       sync.Mutex
	families map[string]metricFamily
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]metricFamily)}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register installs fresh or returns the existing family under name.
// The check callback vets an existing family for shape compatibility.
func (r *Registry) register(name string, fresh func() metricFamily, check func(metricFamily) (metricFamily, bool)) metricFamily {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		got, ok := check(f)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
		}
		return got
	}
	f := fresh()
	r.families[name] = f
	return f
}

// Counter is a monotonically increasing value.
type Counter struct {
	name, help string
	v          atomicFloat
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds v; v must be non-negative (not enforced, counters are trusted
// in-process callers).
func (c *Counter) Add(v float64) { c.v.Add(v) }

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Load() }

func (c *Counter) meta() (string, string, string) { return c.name, c.help, "counter" }
func (c *Counter) sample(emit func(string, string, float64)) {
	emit("", "", c.v.Load())
}

// NewCounter returns the counter registered under name.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.register(name,
		func() metricFamily { return &Counter{name: name, help: help} },
		func(f metricFamily) (metricFamily, bool) { c, ok := f.(*Counter); return c, ok })
	return f.(*Counter)
}

// funcMetric samples a callback at scrape time: the value lives in the
// instrumented package's own atomics and is read here, so existing
// counters need no double bookkeeping.
type funcMetric struct {
	name, help, typ string
	fn              func() float64
}

func (m *funcMetric) meta() (string, string, string) { return m.name, m.help, m.typ }
func (m *funcMetric) sample(emit func(string, string, float64)) {
	emit("", "", m.fn())
}

// NewCounterFunc registers a counter whose value is fn() at scrape time.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	r.register(name,
		func() metricFamily { return &funcMetric{name: name, help: help, typ: "counter", fn: fn} },
		func(f metricFamily) (metricFamily, bool) {
			m, ok := f.(*funcMetric)
			return m, ok && m.typ == "counter"
		})
}

// NewGaugeFunc registers a gauge whose value is fn() at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(name,
		func() metricFamily { return &funcMetric{name: name, help: help, typ: "gauge", fn: fn} },
		func(f metricFamily) (metricFamily, bool) {
			m, ok := f.(*funcMetric)
			return m, ok && m.typ == "gauge"
		})
}

// vec is the label machinery behind CounterVec.
type vec struct {
	name, help string
	labels     []string

	mu       sync.Mutex
	children map[string]*vecChild
}

type vecChild struct {
	labels string // pre-rendered {k="v",...}
	v      atomicFloat
	fn     func() float64 // non-nil: sampled at scrape instead of v
}

func (v *vec) child(values []string) *vecChild {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range v.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	key := b.String()

	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[key]
	if !ok {
		c = &vecChild{labels: key}
		v.children[key] = c
	}
	return c
}

func (v *vec) meta() (string, string, string) { return v.name, v.help, "counter" }
func (v *vec) sample(emit func(string, string, float64)) {
	v.mu.Lock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]*vecChild, len(keys))
	for i, k := range keys {
		children[i] = v.children[k]
	}
	fns := make([]func() float64, len(children))
	for i, c := range children {
		fns[i] = c.fn
	}
	v.mu.Unlock()
	for i, c := range children {
		if fns[i] != nil {
			emit("", c.labels, fns[i]())
			continue
		}
		emit("", c.labels, c.v.Load())
	}
}

func sameLabels(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Series is one labeled series of a CounterVec, sharing the family's
// storage.
type Series struct{ v *atomicFloat }

// Inc adds one.
func (s *Series) Inc() { s.v.Add(1) }

// Add adds d.
func (s *Series) Add(d float64) { s.v.Add(d) }

// Value returns the current value.
func (s *Series) Value() float64 { return s.v.Load() }

// CounterVec is a counter family partitioned by labels.
type CounterVec struct{ *vec }

// With returns the series for the given label values (created on first
// use), in the order the labels were declared.
func (cv CounterVec) With(values ...string) *Series {
	return &Series{v: &cv.child(values).v}
}

// WithFunc binds the series for the given label values to a callback
// sampled at scrape time — the labeled analogue of NewCounterFunc, for
// counters whose truth lives in another package's atomics.
func (cv CounterVec) WithFunc(fn func() float64, values ...string) {
	c := cv.child(values)
	cv.mu.Lock()
	c.fn = fn
	cv.mu.Unlock()
}

// NewCounterVec returns the labeled counter family registered under name.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", l, name))
		}
	}
	f := r.register(name,
		func() metricFamily {
			return &vec{name: name, help: help, labels: labels, children: make(map[string]*vecChild)}
		},
		func(f metricFamily) (metricFamily, bool) {
			v, ok := f.(*vec)
			return v, ok && sameLabels(v.labels, labels)
		})
	return &CounterVec{f.(*vec)}
}

// Histogram is a fixed-bucket latency histogram in the Prometheus
// cumulative style: observations land in the first bucket whose upper
// bound is >= the value, and exposition emits cumulative counts with an
// implicit +Inf bucket, plus _sum and _count series.
//
// Storage is sharded: Observe borrows a shard through a sync.Pool (the
// pool's per-P caches hand each OS thread its own shard almost every
// time), so concurrent observers from many goroutines do not fight over
// one set of cache lines. Shard fields are still atomics — a scrape
// reads them while observers write — but uncontended atomic adds are
// cheap; it is the cross-core contention this removes. Exposition
// merges the shards, so the wire format is byte-identical to the
// unsharded layout.
type Histogram struct {
	name, help string
	bounds     []float64 // sorted upper bounds, +Inf implicit

	pool      sync.Pool
	mu        sync.Mutex   // guards shards growth and rr
	shards    []*histShard // every shard ever created; never dropped
	rr        int          // round-robin cursor once maxShards is hit
	maxShards int
}

// histShard is one observer's slice of the histogram's storage.
type histShard struct {
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	sum    atomicFloat
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	sh, _ := h.pool.Get().(*histShard)
	if sh == nil {
		sh = h.takeShard()
	}
	i := sort.SearchFloat64s(h.bounds, v)
	sh.counts[i].Add(1)
	sh.sum.Add(v)
	sh.count.Add(1)
	h.pool.Put(sh)
}

// takeShard returns a shard for an observer whose pool came up empty:
// a fresh one while under the cap, a round-robin pick of the existing
// ones after (a GC purges the pool's caches, and unbounded regrowth
// would leak a shard per purge). A recycled shard may be concurrently
// owned by another observer; that is safe, the fields are atomic.
func (h *Histogram) takeShard() *histShard {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.shards) < h.maxShards {
		sh := &histShard{counts: make([]atomic.Uint64, len(h.bounds)+1)}
		h.shards = append(h.shards, sh)
		return sh
	}
	sh := h.shards[h.rr%len(h.shards)]
	h.rr++
	return sh
}

// HistSnapshot is a point-in-time merge of a histogram's shards. Counts
// is per-bucket (not cumulative) with the +Inf overflow last, so
// len(Counts) == len(Bounds)+1.
type HistSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Snapshot merges the shards. Concurrent observers keep writing while
// the merge runs, so the totals are advisory to within the in-flight
// handful — the same guarantee the unsharded exposition had.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	shards := append([]*histShard(nil), h.shards...)
	h.mu.Unlock()
	s := HistSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.bounds)+1),
	}
	for _, sh := range shards {
		for i := range sh.counts {
			s.Counts[i] += sh.counts[i].Load()
		}
		s.Sum += sh.sum.Load()
		s.Count += sh.count.Load()
	}
	return s
}

func (h *Histogram) meta() (string, string, string) { return h.name, h.help, "histogram" }
func (h *Histogram) sample(emit func(string, string, float64)) {
	s := h.Snapshot()
	var cum uint64
	for i, b := range h.bounds {
		cum += s.Counts[i]
		emit("_bucket", `{le="`+formatFloat(b)+`"}`, float64(cum))
	}
	emit("_bucket", `{le="+Inf"}`, float64(s.Count))
	emit("_sum", "", s.Sum)
	emit("_count", "", float64(s.Count))
}

// DefLatencyBuckets are the default upper bounds (seconds) for job and
// request latency histograms.
var DefLatencyBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60}

// NewHistogram returns the histogram registered under name with the
// given bucket upper bounds (ascending; +Inf is implicit and must not
// be listed).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
	}
	for i := range bounds {
		if math.IsInf(bounds[i], 0) || math.IsNaN(bounds[i]) {
			panic(fmt.Sprintf("obs: histogram %q has non-finite bound", name))
		}
		if i > 0 && bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly ascending", name))
		}
	}
	f := r.register(name,
		func() metricFamily {
			h := &Histogram{name: name, help: help, bounds: append([]float64(nil), bounds...)}
			// Enough shards that every P can hold one with headroom for
			// pool churn; past the cap, observers share round-robin.
			h.maxShards = 4 * runtime.GOMAXPROCS(0)
			return h
		},
		func(f metricFamily) (metricFamily, bool) {
			h, ok := f.(*Histogram)
			if !ok || len(h.bounds) != len(bounds) {
				return nil, false
			}
			for i := range bounds {
				if h.bounds[i] != bounds[i] {
					return nil, false
				}
			}
			return h, true
		})
	return f.(*Histogram)
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double-quote, and newline.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes HELP text: backslash and newline only.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders every registered family in Prometheus text
// exposition format (version 0.0.4), families sorted by name.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]metricFamily, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		name, help, typ := f.meta()
		if help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, escapeHelp(help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, typ)
		f.sample(func(suffix, labels string, value float64) {
			b.WriteString(name)
			b.WriteString(suffix)
			b.WriteString(labels)
			b.WriteByte(' ')
			b.WriteString(formatFloat(value))
			b.WriteByte('\n')
		})
	}
	_, err := io.WriteString(w, b.String())
	return err
}
