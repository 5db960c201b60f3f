package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"imagebench/internal/vtime"
)

// Chrome trace-event export: one JSON object loadable in Perfetto or
// chrome://tracing. The dual clocks map to two synthetic processes —
// pid 1 is wall time (timestamps relative to the earliest span start),
// pid 2 is virtual time (timestamps are positions on the simulated
// cluster's timeline) — so the same trace answers both "where did the
// Go code spend wall time" and "where did the simulation spend virtual
// seconds". Within each process, tid groups a span tree under its root
// span's ID; on the wall clock, a span that starts before an earlier
// sibling has ended (the cells of a fanned-out experiment) moves, with
// its subtree, to a lane of its own whose tid is its span ID, because
// complete events on one tid must nest. Events are ordered by (pid,
// tid, ts), so the export is a function of the span set, not of the
// order the spans happened to end in.

const (
	chromePidWall    = 1
	chromePidVirtual = 2
)

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"` // microseconds
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	S    string         `json:"s,omitempty"` // instant-event scope
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func attrArgs(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

// WriteChromeTrace renders every finished span as Chrome trace-event
// JSON. Wall timestamps are microseconds since the earliest span start;
// virtual timestamps are microseconds of simulated time since cluster
// start.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()

	var epoch time.Time
	for _, s := range spans {
		start, _ := s.Wall()
		if epoch.IsZero() || start.Before(epoch) {
			epoch = start
		}
	}
	wallUS := func(at time.Time) int64 { return at.Sub(epoch).Microseconds() }
	virtUS := func(at vtime.Time) int64 { return int64(at) / int64(time.Microsecond) }

	// Parents before children, whatever order they ended in: a parent
	// starts no later than its child and has the smaller ID.
	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].start.Equal(spans[j].start) {
			return spans[i].start.Before(spans[j].start)
		}
		return spans[i].ID < spans[j].ID
	})
	// lane is a span's tid on the wall clock; laneFree is when the last
	// child placed in its parent's lane ended.
	lane := make(map[uint64]uint64, len(spans))
	laneFree := make(map[uint64]time.Time, len(spans))

	meta := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: chromePidWall,
			Args: map[string]any{"name": "wall clock"}},
		{Name: "process_name", Ph: "M", Pid: chromePidVirtual,
			Args: map[string]any{"name": "virtual (simulated) clock"}},
	}
	var events []chromeEvent
	for _, s := range spans {
		s.mu.Lock()
		name, root := s.Name, s.RootID
		start, end := s.start, s.end
		vstart, vend, hasVirtual := s.vstart, s.vend, s.hasVirtual
		virtualOnly := s.virtualOnly
		attrs := append([]Attr(nil), s.attrs...)
		evs := append([]Event(nil), s.events...)
		s.mu.Unlock()

		wallTid := root
		if parentLane, ok := lane[s.ParentID]; ok {
			wallTid = parentLane
			switch {
			case virtualOnly: // no wall event to place
			case start.Before(laneFree[s.ParentID]):
				wallTid = s.ID
			default:
				laneFree[s.ParentID] = end
			}
		}
		lane[s.ID] = wallTid

		args := attrArgs(attrs)
		if !virtualOnly {
			events = append(events, chromeEvent{
				Name: name, Ph: "X",
				Ts: wallUS(start), Dur: end.Sub(start).Microseconds(),
				Pid: chromePidWall, Tid: wallTid, Args: args,
			})
		}
		if hasVirtual {
			events = append(events, chromeEvent{
				Name: name, Ph: "X",
				Ts: virtUS(vstart), Dur: virtUS(vend) - virtUS(vstart),
				Pid: chromePidVirtual, Tid: root, Args: args,
			})
		}
		for _, ev := range evs {
			args := attrArgs(ev.Attrs)
			if ev.HasVirtual {
				events = append(events, chromeEvent{
					Name: ev.Name, Ph: "i", Ts: virtUS(ev.Virtual),
					Pid: chromePidVirtual, Tid: root, S: "t", Args: args,
				})
				continue
			}
			events = append(events, chromeEvent{
				Name: ev.Name, Ph: "i", Ts: wallUS(ev.Wall),
				Pid: chromePidWall, Tid: wallTid, S: "t", Args: args,
			})
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		return a.Ts < b.Ts
	})
	events = append(meta, events...)

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"}); err != nil {
		return fmt.Errorf("obs: write chrome trace: %w", err)
	}
	return nil
}
