package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"imagebench/internal/vtime"
)

// The schedule audit: Audit sets the hooks of audit.go, so every cluster
// records each interval it books, and every Makespan checks the whole
// schedule so far against the rules the model claims:
//
//   - held: every resource's timeline holds exactly the intervals booked
//     on it, and the bookings of one call (a transfer's two NICs, a
//     broadcast's) hold one interval;
//   - after-deps: a booking starts at or after its dependencies and the
//     floor;
//   - handle-end: the handle a call returns ends with its bookings;
//   - makespan: Makespan is the largest end booked or waited on;
//   - memory: every node's memory in use stays within [0, capacity];
//   - dead-node: a killed node books nothing that ends after its kill.

// Breach is one broken rule on one resource of an audited cluster.
type Breach struct{ Rule, Resource, Detail string }

// resource is the timeline a booking is on.
type resource struct {
	node, slot int
	kind       byte
}

func (r resource) String() string {
	switch r.kind {
	case 'w':
		return fmt.Sprintf("node%d slot%d", r.node, r.slot)
	case 'n':
		return fmt.Sprintf("node%d nic", r.node)
	}
	return fmt.Sprintf("node%d disk", r.node)
}

func (c *Cluster) timeline(r resource) *vtime.GapTimeline {
	n := c.nodes[r.node]
	switch r.kind {
	case 'w':
		return &n.workers[r.slot]
	case 'n':
		return &n.nic
	}
	return &n.disk
}

// booking is a booked interval with what the call that made it knew.
type booking struct {
	booked
	call         int
	ready, until vtime.Time // max(After(deps), floor); the handle's End
}

type auditLog struct {
	bookings []booking
	calls    int
	waited   vtime.Time // the latest end a Barrier observed
	seen     map[Breach]bool
}

var audited struct {
	sync.Mutex
	logs     map[*Cluster]*auditLog
	breaches []Breach
}

// Audit runs run with the schedule audit on, checks every cluster run
// booked on once more when it returns, and hands back the breaches
// found, each once per cluster. Not for parallel tests: the hooks are
// process-wide.
func Audit(run func()) []Breach {
	audited.logs = map[*Cluster]*auditLog{}
	auditBooked, auditMakespan = record, check
	defer func() {
		auditBooked, auditMakespan = nil, nil
		audited.logs, audited.breaches = nil, nil
	}()
	run()
	audited.Lock()
	var cs []*Cluster
	for c := range audited.logs {
		cs = append(cs, c)
	}
	audited.Unlock()
	for _, c := range cs {
		check(c)
	}
	return audited.breaches
}

func logOf(c *Cluster) *auditLog {
	l := audited.logs[c]
	if l == nil {
		l = &auditLog{seen: map[Breach]bool{}}
		audited.logs[c] = l
	}
	return l
}

func record(c *Cluster, after, until vtime.Time, bs ...booked) {
	audited.Lock()
	defer audited.Unlock()
	l := logOf(c)
	l.calls++
	if len(bs) == 0 {
		l.waited = vtime.Max(l.waited, until)
	}
	for _, b := range bs {
		l.bookings = append(l.bookings, booking{b, l.calls, vtime.Max(after, c.floor), until})
	}
}

// check holds c's schedule so far to the audit's rules, adding each
// breach not reported before.
func check(c *Cluster) {
	audited.Lock()
	defer audited.Unlock()
	l := logOf(c)
	report := func(rule, res string, format string, args ...any) {
		b := Breach{rule, res, ""}
		if !l.seen[b] {
			l.seen[b] = true
			b.Detail = fmt.Sprintf(format, args...)
			audited.breaches = append(audited.breaches, b)
		}
	}
	last := l.waited
	perRes := map[resource][]booked{}
	for i, b := range l.bookings {
		r := resource{b.node, b.slot, b.kind}
		last = vtime.Max(last, b.end)
		if b.end > b.start {
			perRes[r] = append(perRes[r], b.booked)
		}
		if p := l.bookings[max(i-1, 0)]; p.call == b.call && (p.start != b.start || p.end != b.end) {
			report("held", r.String(), "booked [%v,%v), another resource of its call [%v,%v)", b.start, b.end, p.start, p.end)
		}
		if b.start < b.ready {
			report("after-deps", r.String(), "starts at %v, ready at %v", b.start, b.ready)
		}
		if b.end != b.until {
			report("handle-end", r.String(), "booked until %v, its handle ends at %v", b.end, b.until)
		}
		if n := c.nodes[b.node]; n.killed && b.end > n.deadAt {
			report("dead-node", r.String(), "booked until %v, killed at %v", b.end, n.deadAt)
		}
	}
	if last != c.makespan {
		report("makespan", "cluster", "Makespan %v, latest end booked or waited on %v", c.makespan, last)
	}
	for i, n := range c.nodes {
		if m := n.mem; m.used < 0 || m.used > m.capacity || m.highWater > m.capacity {
			report("memory", fmt.Sprintf("node%d mem", i), "%d in use, high water %d, of %d", m.used, m.highWater, m.capacity)
		}
		for w := range n.workers {
			checkHeld(c, resource{i, w, 'w'}, perRes[resource{i, w, 'w'}], report)
		}
		checkHeld(c, resource{i, 0, 'n'}, perRes[resource{i, 0, 'n'}], report)
		checkHeld(c, resource{i, 0, 'd'}, perRes[resource{i, 0, 'd'}], report)
	}
}

// checkHeld holds r's timeline to the intervals bs booked on it,
// coalesced as the timeline coalesces them.
func checkHeld(c *Cluster, r resource, bs []booked, report func(rule, res, format string, args ...any)) {
	slices.SortFunc(bs, func(a, b booked) int { return cmp.Compare(a.start, b.start) })
	var starts, ends []vtime.Time
	for _, b := range bs {
		switch {
		case len(ends) > 0 && b.start < ends[len(ends)-1]:
			report("held", r.String(), "bookings overlap at %v", b.start)
		case len(ends) > 0 && b.start == ends[len(ends)-1]:
			ends[len(ends)-1] = b.end
		default:
			starts, ends = append(starts, b.start), append(ends, b.end)
		}
	}
	s, e := c.timeline(r).Intervals()
	k := 0
	for k < len(s) && k < len(starts) && s[k] == starts[k] && e[k] == ends[k] {
		k++
	}
	if k < len(s) || k < len(starts) {
		report("held", r.String(), "the timeline holds %d intervals, the bookings %d, and they part at %d", len(s), len(starts), k)
	}
}
