package cluster

import (
	"math"
	"testing"

	"imagebench/internal/vtime"
)

// fullBestWorker is bestWorker without its early exit: every slot probed,
// ties to the lowest.
func fullBestWorker(n *node, ready vtime.Time, d vtime.Duration) (int, vtime.Time) {
	best, bestStart := -1, vtime.Time(0)
	for i := range n.workers {
		if s := n.workers[i].StartAt(ready, d); best < 0 || s < bestStart {
			best, bestStart = i, s
		}
	}
	return best, bestStart
}

// fullPickNode is PickNode with every node and every slot probed.
func fullPickNode(c *Cluster, prefer []int, locality vtime.Duration, ready vtime.Time, cost vtime.Duration) int {
	ready = vtime.Max(ready, c.floor)
	d := max(cost, 0) + c.cfg.TaskOverhead
	probe := func(n *node) (vtime.Time, bool) {
		_, start := fullBestWorker(n, ready, d)
		if n.slowFactor > 1 && !start.Before(n.slowAt) {
			_, start = fullBestWorker(n, ready, vtime.Duration(float64(d)*n.slowFactor))
		}
		return start, !n.killed || start.Before(n.deadAt)
	}
	best, bestStart := -1, vtime.Time(math.MaxInt64)
	for i, n := range c.nodes {
		if start, ok := probe(n); ok && start < bestStart {
			best, bestStart = i, start
		}
	}
	for _, p := range prefer {
		if p >= 0 && p < len(c.nodes) {
			if start, ok := probe(c.nodes[p]); ok && start.Sub(bestStart) <= locality {
				return p
			}
		}
	}
	return best
}

// FuzzSlotChoice replays arbitrary booking sequences on a small cluster
// with a kill and a straggler, and holds bestWorker and PickNode, which
// stop at the first slot or node that starts at ready, to the full scans
// above. The first six bytes shape the cluster and its faults; then each
// five bytes are one step: a Submit (after checking every node's slot
// choice), a PickNode with one preferred node and a signed locality, or
// a floor advance.
func FuzzSlotChoice(f *testing.F) {
	f.Add([]byte{3, 3, 1, 40, 2, 1, 0, 0, 0, 9, 0, 0, 0, 0, 9, 0, 1, 1, 2, 5, 3, 0, 0, 12, 4, 250})
	f.Add([]byte{1, 7, 0, 9, 3, 2, 0, 1, 5, 30, 0, 0, 1, 5, 30, 0, 1, 0, 5, 30, 128, 2, 0, 20, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 6 {
			return
		}
		c := New(Config{Nodes: 1 + int(b[0]%4), WorkersPerNode: 1 + int(b[1]%4), MemPerNode: 1, TaskOverhead: vtime.Duration(b[5] % 3)})
		var faults []Fault
		if k := int(b[2]) % (c.Nodes() + 1); k > 0 && c.Nodes() > 1 {
			faults = append(faults, Fault{Kind: FaultKill, Node: k - 1, At: vtime.Time(b[3])})
		}
		if s := int(b[4]) % (c.Nodes() + 1); s > 0 {
			faults = append(faults, Fault{Kind: FaultSlow, Node: s - 1, At: vtime.Time(b[3] / 2), Factor: 1.5 + float64(b[5]%4)})
		}
		if err := c.Inject(faults...); err != nil {
			t.Fatal(err)
		}
		for i := 6; i+5 <= len(b); i += 5 {
			node, ready, cost := int(b[i+1])%c.Nodes(), vtime.Time(b[i+2]), vtime.Duration(b[i+3])
			switch b[i] % 3 {
			case 0:
				d := cost + c.cfg.TaskOverhead
				for j, n := range c.nodes {
					r := vtime.Max(ready, c.floor)
					gw, gs := n.bestWorker(r, d)
					if ww, ws := fullBestWorker(n, r, d); gw != ww || gs != ws {
						t.Fatalf("step %d node %d: bestWorker(%v, %v) = slot %d at %v, full scan says slot %d at %v", i, j, r, d, gw, gs, ww, ws)
					}
				}
				c.Submit(node, []*Handle{{End: ready}}, cost, nil)
			case 1:
				loc := vtime.Duration(int8(b[i+4]))
				if got, want := c.PickNode([]int{node}, loc, ready, cost), fullPickNode(c, []int{node}, loc, ready, cost); got != want {
					t.Fatalf("step %d: PickNode(prefer %d, locality %v, ready %v, cost %v) = %d, full scan says %d", i, node, loc, ready, cost, got, want)
				}
			default:
				c.AdvanceFloor(ready / 4)
			}
		}
	})
}
