package cluster

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"imagebench/internal/vtime"
)

// This file implements deterministic fault injection: a schedule of node
// kills and slowdowns applied to the simulated cluster's timelines. The
// paper's evaluation is not only about raw speed but about how the five
// systems *degrade* — Spark recomputes lost partitions from lineage,
// Myria restarts the whole query, SciDB offers no mid-query recovery —
// and a deterministic schedule makes that axis reproducible: the same
// schedule on the same workload always yields the same virtual timeline.
//
// Semantics, chosen to be simple and exactly reproducible:
//
//   - Kill(node, At): the node is up until virtual time At and gone
//     afterwards. A task (or transfer, or disk op) whose interval would
//     end after At fails with a *NodeDownError carrying the kill time;
//     work that completes by At succeeds. PickNode's probes
//     skip nodes that cannot host the task's full interval.
//   - Slow(node, At, Factor): compute tasks becoming ready at or after
//     At run Factor× slower on that node (a straggler). Network and
//     disk are unaffected.
//
// Faults must be injected before engines submit work: the simulator
// books intervals eagerly, and a kill cannot retract bookings that
// already succeeded.

// ErrNodeDown is the sentinel wrapped by every node-failure error.
var ErrNodeDown = errors.New("cluster: node down")

// NodeDownError reports work lost to a killed node: which node, and the
// virtual time the kill took effect (which is also the earliest time the
// failure can be detected and recovery can begin).
type NodeDownError struct {
	Node int
	At   vtime.Time
}

func (e *NodeDownError) Error() string {
	return fmt.Sprintf("cluster: node %d down since %v", e.Node, e.At)
}

func (e *NodeDownError) Unwrap() error { return ErrNodeDown }

// DownAt extracts the node-failure detail from an error chain.
func DownAt(err error) (*NodeDownError, bool) {
	var nd *NodeDownError
	if errors.As(err, &nd) {
		return nd, true
	}
	return nil, false
}

// FaultKind discriminates fault types.
type FaultKind int

const (
	// FaultKill removes a node at a virtual time.
	FaultKill FaultKind = iota
	// FaultSlow multiplies the node's compute durations from a virtual
	// time on (a straggler).
	FaultSlow
)

func (k FaultKind) String() string {
	switch k {
	case FaultKill:
		return "kill"
	case FaultSlow:
		return "slow"
	}
	return "fault?"
}

// Fault is one resolved fault event on a concrete cluster.
type Fault struct {
	Kind   FaultKind
	Node   int
	At     vtime.Time
	Factor float64 // FaultSlow only; must be > 1
}

// Inject applies the faults to the cluster's timelines. It must be
// called before work is submitted (see the package comment above). It
// rejects out-of-range nodes, non-slowing factors, multiple slowdowns
// of one node (a node models a single straggler regime), and schedules
// that would leave no node alive — and it validates the entire schedule
// before touching any state, so a rejected Inject leaves the cluster
// exactly as it was.
func (c *Cluster) Inject(faults ...Fault) error {
	killed := make(map[int]bool, len(c.nodes))
	slowed := make(map[int]bool, len(c.nodes))
	for i, n := range c.nodes {
		killed[i] = n.killed
		slowed[i] = n.slowFactor > 1
	}
	for _, f := range faults {
		if f.Node < 0 || f.Node >= len(c.nodes) {
			return fmt.Errorf("cluster: fault on node %d, cluster has %d nodes", f.Node, len(c.nodes))
		}
		switch f.Kind {
		case FaultKill:
			killed[f.Node] = true
		case FaultSlow:
			if f.Factor <= 1 {
				return fmt.Errorf("cluster: slow fault on node %d needs factor > 1, got %g", f.Node, f.Factor)
			}
			if slowed[f.Node] {
				return fmt.Errorf("cluster: node %d slowed twice; a node has one straggler regime", f.Node)
			}
			slowed[f.Node] = true
		default:
			return fmt.Errorf("cluster: unknown fault kind %d", f.Kind)
		}
	}
	alive := 0
	for i := range c.nodes {
		if !killed[i] {
			alive++
		}
	}
	if alive == 0 {
		return fmt.Errorf("cluster: fault schedule kills all %d nodes", len(c.nodes))
	}
	for _, f := range faults {
		n := c.nodes[f.Node]
		switch f.Kind {
		case FaultKill:
			if !n.killed || f.At < n.deadAt {
				n.killed = true
				n.deadAt = f.At
			}
		case FaultSlow:
			n.slowAt = f.At
			n.slowFactor = f.Factor
		}
	}
	c.faulty = true
	return nil
}

// Faulty reports whether any fault has been injected. Engines use it to
// gate fault-tolerance machinery (e.g. TensorFlow checkpoints) so
// fault-free simulations stay byte-identical to the pre-fault engine.
func (c *Cluster) Faulty() bool { return c.faulty }

// KillTime returns the virtual time the node is killed at, if it is part
// of the kill schedule.
func (c *Cluster) KillTime(nodeID int) (vtime.Time, bool) {
	n := c.node(nodeID)
	return n.deadAt, n.killed
}

// Kills returns how many nodes the schedule kills — the natural bound on
// recovery attempts.
func (c *Cluster) Kills() int {
	k := 0
	for _, n := range c.nodes {
		if n.killed {
			k++
		}
	}
	return k
}

// AliveNodes returns the nodes not yet dead as of the scheduling floor:
// a node whose kill lies in the future is still alive (engines cannot
// know the future), while one killed at or before the floor is gone.
// Engines constructed after AdvanceFloor (query restarts) therefore
// place work only on survivors.
func (c *Cluster) AliveNodes() []int {
	var out []int
	for i, n := range c.nodes {
		if !n.killed || n.deadAt.After(c.floor) {
			out = append(out, i)
		}
	}
	return out
}

// CanHost reports whether a scheduler would still assign a task of
// duration d becoming ready at the given time to the node — i.e. the
// node is not visibly dead at the task's start.
func (c *Cluster) CanHost(nodeID int, ready vtime.Time, d vtime.Duration) bool {
	ready = vtime.Max(ready, c.floor)
	if d < 0 {
		d = 0
	}
	_, ok := c.node(nodeID).probe(ready, d+c.cfg.TaskOverhead)
	return ok
}

// RerunAfterKills re-invokes run until it succeeds, retrying only on
// node-death failures and advancing the scheduling floor to each
// failure time first so every retry is causal (it cannot use idle
// capacity from before the kill). It returns how many failed attempts
// were paid for before the final outcome. This is the shared mechanics
// behind engine-level whole-program recovery policies: Myria's
// automatic query restart and SciDB's manual operator rerun are both
// this loop, called from their engine registrations. Errors that are not node deaths — and deaths of node 0, which
// hosts every engine's driver/coordinator — end the loop immediately.
func (c *Cluster) RerunAfterKills(maxRetries int, run func() error) (failed int, err error) {
	for attempt := 0; ; attempt++ {
		err = run()
		if err == nil {
			return attempt, nil
		}
		nd, ok := DownAt(err)
		if !ok || nd.Node == 0 || attempt >= maxRetries {
			return attempt, err
		}
		c.AdvanceFloor(nd.At)
	}
}

// AdvanceFloor forbids any booking before t: every subsequent task,
// transfer, and disk op starts at or after the floor. Recovery paths use
// it to keep restarts causal — a query restarted after a kill at T
// cannot do work in the idle time before T.
func (c *Cluster) AdvanceFloor(t vtime.Time) {
	if t > c.floor {
		c.floor = t
	}
}

// FaultSpec is one fault in a scenario, before it is resolved against a
// concrete run: the time is either absolute virtual time or a fraction
// of a reference makespan (the system's own fault-free runtime), so one
// scenario lands mid-run for every system regardless of how fast each
// one is.
type FaultSpec struct {
	Kind   FaultKind
	Node   int
	Frac   float64        // fraction of the reference makespan, when > 0
	At     vtime.Duration // absolute virtual time, when Frac == 0
	Factor float64        // FaultSlow only
}

// Scenario is a parsed fault scenario: zero or more fault specs. The
// empty scenario is the fault-free baseline.
type Scenario []FaultSpec

// ParseScenario parses the textual scenario syntax used by profiles,
// sweep overrides, and the -kill-at CLI flag:
//
//	baseline                     no faults
//	kill:1@30%                   kill node 1 at 30% of the baseline makespan
//	kill:1@10s                   kill node 1 at virtual time 10s
//	slow:2@25%*4                 slow node 2 by 4× from 25% of the baseline
//	kill:1@30%+kill:2@55%        two faults in one scenario
func ParseScenario(s string) (Scenario, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "baseline" {
		return nil, nil
	}
	var sc Scenario
	for _, atom := range strings.Split(s, "+") {
		atom = strings.TrimSpace(atom)
		kind, rest, ok := strings.Cut(atom, ":")
		if !ok {
			return nil, fmt.Errorf("cluster: fault %q: want kill:NODE@TIME or slow:NODE@TIME*FACTOR", atom)
		}
		var spec FaultSpec
		switch kind {
		case "kill":
			spec.Kind = FaultKill
		case "slow":
			spec.Kind = FaultSlow
			var factor string
			rest, factor, ok = strings.Cut(rest, "*")
			if !ok {
				return nil, fmt.Errorf("cluster: slow fault %q: missing *FACTOR", atom)
			}
			f, err := strconv.ParseFloat(factor, 64)
			if err != nil || !(f > 1) || math.IsInf(f, 1) {
				return nil, fmt.Errorf("cluster: slow fault %q: factor must be a finite number > 1", atom)
			}
			spec.Factor = f
		default:
			return nil, fmt.Errorf("cluster: unknown fault kind %q in %q", kind, atom)
		}
		nodeStr, at, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("cluster: fault %q: missing @TIME", atom)
		}
		node, err := strconv.Atoi(nodeStr)
		if err != nil || node < 0 {
			return nil, fmt.Errorf("cluster: fault %q: bad node %q", atom, nodeStr)
		}
		spec.Node = node
		if frac, fok := strings.CutSuffix(at, "%"); fok {
			f, err := strconv.ParseFloat(frac, 64)
			spec.Frac = f / 100 // NaN fails below, and so does a subnormal that rounds to 0
			if err != nil || !(spec.Frac > 0 && spec.Frac < 1) {
				return nil, fmt.Errorf("cluster: fault %q: percentage must be in (0,100)", atom)
			}
		} else {
			d, err := time.ParseDuration(at)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("cluster: fault %q: bad time %q (want a percentage like 30%% or a duration like 10s)", atom, at)
			}
			spec.At = d
		}
		sc = append(sc, spec)
	}
	return sc, nil
}

func (f FaultSpec) resolve(ref vtime.Duration) Fault {
	at := f.At
	if f.Frac > 0 {
		at = vtime.Duration(float64(ref) * f.Frac)
	}
	return Fault{Kind: f.Kind, Node: f.Node, At: vtime.Time(0).Add(at), Factor: f.Factor}
}

// Faults resolves the scenario against a reference makespan (the
// system's fault-free runtime), turning fractional times into absolute
// virtual times.
func (sc Scenario) Faults(ref vtime.Duration) []Fault {
	out := make([]Fault, len(sc))
	for i, f := range sc {
		out[i] = f.resolve(ref)
	}
	return out
}

// Kills returns the number of kill faults in the scenario.
func (sc Scenario) Kills() int {
	k := 0
	for _, f := range sc {
		if f.Kind == FaultKill {
			k++
		}
	}
	return k
}

// MaxNode returns the highest node index the scenario touches, or -1 for
// the baseline.
func (sc Scenario) MaxNode() int {
	m := -1
	for _, f := range sc {
		if f.Node > m {
			m = f.Node
		}
	}
	return m
}

// TouchesNode reports whether the scenario faults the given node.
func (sc Scenario) TouchesNode(node int) bool {
	for _, f := range sc {
		if f.Node == node {
			return true
		}
	}
	return false
}
