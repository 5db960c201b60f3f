package main

import (
	"encoding/json"
	"sort"
	"sync"
	"time"

	"imagebench/internal/fsatomic"
	"imagebench/internal/obs"
)

// span is one timed call into a layer: name, start, end, the span that
// caused it, and the workload op it belongs to. Source says who recorded
// it: "bench" for the spans this package opens around its own calls,
// "program" for spans harvested from the program's obs tracers.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for roots
	Name    string `json:"name"`
	Op      string `json:"op,omitempty"`
	Source  string `json:"source"`
	StartNs int64  `json:"startNs"` // since the tracer's epoch
	EndNs   int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A nil tracer accepts
// every call as a no-op, so untraced runs pay one nil check per call
// site and nothing else.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef is an open span; the zero value (from a nil tracer) is inert.
type spanRef struct {
	t  *tracer
	id int
}

func (t *tracer) start(parent spanRef, name, op string) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent.id, Name: name, Op: op, Source: "bench", StartNs: now})
	t.mu.Unlock()
	return spanRef{t, id}
}

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.epoch).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.id-1].EndNs = now
	s.t.mu.Unlock()
}

// add records an already-measured span (the HTTP client times requests
// itself and reports them after the fact, off the request path).
func (t *tracer) add(parent spanRef, name, op string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent.id, Name: name, Op: op, Source: "bench", StartNs: s, EndNs: s + d.Nanoseconds()})
	t.mu.Unlock()
}

// harvest copies finished spans of one of the program's obs tracers in,
// keeping their parentage; the program's roots hang under parent. Spans
// that began before since are skipped (set-up traffic on a daemon whose
// tracer is always on).
func (t *tracer) harvest(parent spanRef, spans []*obs.Span, since time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make(map[uint64]int, len(spans))
	var kept []*obs.Span
	for _, s := range spans {
		if start, _ := s.Wall(); start.Before(since) {
			continue
		}
		kept = append(kept, s)
		ids[s.ID] = len(t.spans) + len(kept)
	}
	for _, s := range kept {
		start, end := s.Wall()
		p := parent.id
		if id, ok := ids[s.ParentID]; ok {
			p = id
		}
		t.spans = append(t.spans, span{
			ID: ids[s.ID], Parent: p, Name: s.Name, Source: "program",
			StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds(),
		})
	}
}

// durationsMs returns the durations of every finished span with the
// given name, in milliseconds.
func (t *tracer) durationsMs(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNs >= s.StartNs {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Children running in parallel
// overlap, so the covered part is the union of their intervals, clipped
// to the parent.
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ a, b int64 }
	kids := make(map[int][]iv)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			a, b := max(s.StartNs, p.StartNs), min(s.EndNs, p.EndNs)
			if b > a {
				kids[s.Parent] = append(kids[s.Parent], iv{a, b})
			}
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, end int64
		end = s.StartNs
		for _, k := range ivs {
			if k.b <= end {
				continue
			}
			covered += k.b - max(k.a, end)
			end = k.b
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// nameSummary aggregates spans by name: how many, their total time and
// their self time.
type nameSummary struct {
	Name    string  `json:"name"`
	Source  string  `json:"source"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"totalMs"`
	SelfMs  float64 `json:"selfMs"`
}

func summarize(spans []span) []nameSummary {
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []nameSummary
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, nameSummary{Name: s.Name, Source: s.Source})
		}
		out[i].Count++
		out[i].TotalMs += float64(s.EndNs-s.StartNs) / 1e6
		out[i].SelfMs += float64(self[s.ID]) / 1e6
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// write stores the spans and their by-name summary at path, once, when
// the run ends.
func (t *tracer) write(path, workload string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	b, err := json.Marshal(struct {
		Workload string        `json:"workload"`
		Summary  []nameSummary `json:"summary"`
		Spans    []span        `json:"spans"`
	}{workload, summarize(spans), spans})
	if err != nil {
		return err
	}
	return fsatomic.WriteFile(path, append(b, '\n'))
}
