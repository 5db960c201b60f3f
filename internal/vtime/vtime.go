// Package vtime provides virtual (simulated) time primitives used by the
// cluster simulator. All performance experiments in this repository run in
// virtual time: tasks advance per-resource clocks by modeled durations
// instead of waiting on the wall clock, which makes 64-node experiments
// deterministic and runnable on a single physical core.
package vtime

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// Time is a point in virtual time, measured as a duration since the start of
// a simulation. The zero value is the simulation start.
type Time time.Duration

// Duration aliases time.Duration for readability in simulator APIs.
type Duration = time.Duration

// Add returns t advanced by d. Negative durations are clamped so that time
// never moves backwards; the simulator never needs to rewind a clock.
func (t Time) Add(d Duration) Time {
	if d < 0 {
		d = 0
	}
	return t + Time(d)
}

// Sub returns the duration t-u, which may be negative.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// Seconds returns t expressed in virtual seconds.
func (t Time) Seconds() float64 { return Duration(t).Seconds() }

func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// Max returns the latest of the given times. Max() is the zero time.
func Max(ts ...Time) Time {
	var m Time
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}

// GapTimeline models a serially-reusable resource whose requests arrive in
// arbitrary ready-time order (a centralized scheduler dispatching tasks as
// their dependencies complete, not in submission order): each reservation
// books the earliest gap of sufficient length at or after the ready time,
// so an early-ready request submitted late still uses idle time before
// later-ready requests.
type GapTimeline struct {
	// busy intervals, sorted by start, disjoint and coalesced: no two
	// touch, so their ends are sorted too.
	ivs  []interval
	busy Duration
}

// interval is one booking of a GapTimeline, [start, end).
type interval struct{ start, end Time }

// findGap locates the earliest gap of length d starting no earlier than
// ready: it returns the start of that gap and the index at which a new
// interval starting there would be inserted. It is the single search
// shared by Reserve and StartAt, so a probe always agrees with the
// booking that follows it. The intervals are disjoint and coalesced, so
// their ends are strictly increasing and those at or before ready, which
// can neither hold the gap nor push it, are passed over in one binary
// search — or at once when ready is at or past the last end, as many
// probes are.
func (g *GapTimeline) findGap(ready Time, d Duration) (start Time, i int) {
	if n := len(g.ivs); n == 0 || g.ivs[n-1].end <= ready {
		return ready, n
	}
	i = sort.Search(len(g.ivs), func(j int) bool { return g.ivs[j].end > ready })
	for start = ready; i < len(g.ivs); i++ {
		if g.ivs[i].start >= start.Add(d) {
			break // fits entirely before interval i
		}
		if g.ivs[i].end > start {
			start = g.ivs[i].end // push past interval i
		}
	}
	return start, i
}

// Reserve books the resource for duration d at the earliest gap starting no
// earlier than ready, returning the booked interval.
func (g *GapTimeline) Reserve(ready Time, d Duration) (start, end Time) {
	if d < 0 {
		d = 0
	}
	start, i := g.findGap(ready, d)
	end = start.Add(d)
	if d > 0 {
		g.busy += d
		// The booking lies between intervals i-1 and i and can touch each
		// only at an end: coalesce it with the ones it touches, so the
		// list stays short and its ends sorted.
		prev, next := i > 0 && g.ivs[i-1].end == start, i < len(g.ivs) && g.ivs[i].start == end
		switch {
		case prev && next:
			g.ivs[i-1].end = g.ivs[i].end
			g.ivs = slices.Delete(g.ivs, i, i+1)
		case prev:
			g.ivs[i-1].end = end
		case next:
			g.ivs[i].start = start
		default:
			g.ivs = slices.Insert(g.ivs, i, interval{start, end})
		}
	}
	return start, end
}

// StartAt returns the time Reserve(ready, d) would book, without booking.
func (g *GapTimeline) StartAt(ready Time, d Duration) Time {
	if d < 0 {
		d = 0
	}
	start, _ := g.findGap(ready, d)
	return start
}

// Intervals returns a copy of the busy intervals, sorted by start and
// non-overlapping after coalescing. It exists for tests and debugging.
func (g *GapTimeline) Intervals() (starts, ends []Time) {
	starts, ends = make([]Time, len(g.ivs)), make([]Time, len(g.ivs))
	for i, iv := range g.ivs {
		starts[i], ends[i] = iv.start, iv.end
	}
	return starts, ends
}

// Busy returns the total reserved time.
func (g *GapTimeline) Busy() Duration { return g.busy }

// Timeline models a serially-reusable resource (a worker slot, a NIC, a disk
// arm): at any moment it is either free or busy until some virtual time.
type Timeline struct {
	free Time
}

// Reserve books the resource for duration d starting no earlier than
// ready, and returns the interval's start and end times.
func (tl *Timeline) Reserve(ready Time, d Duration) (start, end Time) {
	if d < 0 {
		d = 0
	}
	start = Max(tl.free, ready)
	end = start.Add(d)
	tl.free = end
	return start, end
}
