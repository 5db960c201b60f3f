package cluster

import (
	"errors"
	"math"
	"testing"
	"time"

	"imagebench/internal/vtime"
)

func at(d time.Duration) vtime.Time { return vtime.Time(d) }

// TestPickNodeProbesWithOverhead is the regression test for the
// probe/reserve mismatch: PickNode used to probe workers
// with the bare cost while Submit reserves cost+TaskOverhead, so the
// probed node could differ from the one actually booked. With a nonzero
// overhead the bare-cost probe picks node 0 (whose gap fits 10s but not
// 12s) and then books it at a far worse start; the fixed probe picks
// node 1.
func TestPickNodeProbesWithOverhead(t *testing.T) {
	c := New(Config{Nodes: 2, WorkersPerNode: 1, MemPerNode: 1 << 20,
		NetBandwidth: 1e6, DiskBandwidth: 1e6, TaskOverhead: 2 * time.Second})
	// Node 0: busy [0,5) and [15,25) — a 10s gap that cannot hold
	// 10s + 2s overhead.
	c.Submit(0, nil, 3*time.Second, nil)
	c.Submit(0, []*Handle{{End: at(15 * time.Second)}}, 8*time.Second, nil)
	// Node 1: busy [0,12).
	c.Submit(1, nil, 10*time.Second, nil)

	if got := c.PickNode(nil, 0, 0, 10*time.Second); got != 1 {
		t.Errorf("PickNode chose node %d, want 1 (node 0's gap fits the cost but not cost+overhead)", got)
	}
	h := submitPicked(c, nil, 0, nil, 10*time.Second)
	if h.Node != 1 {
		t.Errorf("booked node %d, want 1", h.Node)
	}
	if want := at(24 * time.Second); h.End != want {
		t.Errorf("task ends %v, want %v", h.End, want)
	}
}

func TestKillSemantics(t *testing.T) {
	c := New(Config{Nodes: 2, WorkersPerNode: 1, MemPerNode: 1 << 20,
		NetBandwidth: 1e6, DiskBandwidth: 1e6})
	if err := c.Inject(Fault{Kind: FaultKill, Node: 1, At: at(5 * time.Second)}); err != nil {
		t.Fatal(err)
	}
	// Work completing before the kill succeeds.
	h := c.Submit(1, nil, 3*time.Second, nil)
	if h.Err != nil {
		t.Fatalf("pre-kill task failed: %v", h.Err)
	}
	// A task whose interval crosses the kill is lost, detected at the kill.
	h = c.Submit(1, []*Handle{{End: at(4 * time.Second)}}, 3*time.Second, nil)
	nd, ok := DownAt(h.Err)
	if !ok || nd.Node != 1 || nd.At != at(5*time.Second) {
		t.Fatalf("mid-run kill: got err %v, want node 1 down at 5s", h.Err)
	}
	if !errors.Is(h.Err, ErrNodeDown) {
		t.Fatal("NodeDownError must wrap ErrNodeDown")
	}
	// A task becoming ready after the kill never runs; fn must not run.
	ran := false
	h = c.Submit(1, []*Handle{{End: at(6 * time.Second)}}, time.Second, func() error { ran = true; return nil })
	if _, ok := DownAt(h.Err); !ok || ran {
		t.Fatalf("post-kill task: err=%v ran=%v", h.Err, ran)
	}
	// PickNode routes around the dead node.
	h = submitPicked(c, nil, 0, []*Handle{{End: at(10 * time.Second)}}, time.Second)
	if h.Err != nil || h.Node != 0 {
		t.Fatalf("task placed after kill: node=%d err=%v", h.Node, h.Err)
	}
	// Transfers touching the dead node fail too.
	x := c.Transfer(1, 0, 1<<20, &Handle{End: at(10 * time.Second)})
	if _, ok := DownAt(x.Err); !ok {
		t.Fatalf("transfer from dead node: %v", x.Err)
	}
	w := c.DiskWrite(1, 1<<20, &Handle{End: at(10 * time.Second)})
	if _, ok := DownAt(w.Err); !ok {
		t.Fatalf("disk write on dead node: %v", w.Err)
	}
}

func TestSlowSemantics(t *testing.T) {
	c := New(Config{Nodes: 1, WorkersPerNode: 1, MemPerNode: 1 << 20,
		NetBandwidth: 1e6, DiskBandwidth: 1e6})
	if err := c.Inject(Fault{Kind: FaultSlow, Node: 0, At: at(10 * time.Second), Factor: 2}); err != nil {
		t.Fatal(err)
	}
	h := c.Submit(0, nil, 4*time.Second, nil)
	if h.End != at(4*time.Second) {
		t.Errorf("pre-slowdown task ends %v, want 4s", h.End)
	}
	h = c.Submit(0, []*Handle{{End: at(10 * time.Second)}}, 4*time.Second, nil)
	if h.End != at(18*time.Second) {
		t.Errorf("straggler task ends %v, want 18s (2x stretch)", h.End)
	}
}

func TestFloorKeepsRestartsCausal(t *testing.T) {
	c := New(Config{Nodes: 1, WorkersPerNode: 1, MemPerNode: 1 << 20,
		NetBandwidth: 1e6, DiskBandwidth: 1e6})
	c.AdvanceFloor(at(30 * time.Second))
	if h := c.Submit(0, nil, time.Second, nil); h.End != at(31*time.Second) {
		t.Errorf("post-floor task ends %v, want 31s", h.End)
	}
	if h := c.Transfer(0, 0, 0); h.End != at(30*time.Second) {
		t.Errorf("post-floor no-op transfer ends %v, want 30s", h.End)
	}
}

func TestAliveNodesTracksFloor(t *testing.T) {
	c := New(Config{Nodes: 3, WorkersPerNode: 1, MemPerNode: 1 << 20,
		NetBandwidth: 1e6, DiskBandwidth: 1e6})
	if err := c.Inject(Fault{Kind: FaultKill, Node: 2, At: at(5 * time.Second)}); err != nil {
		t.Fatal(err)
	}
	if got := len(c.AliveNodes()); got != 3 {
		t.Errorf("before the kill takes effect: %d alive, want 3 (the future is unknown)", got)
	}
	c.AdvanceFloor(at(5 * time.Second))
	alive := c.AliveNodes()
	if len(alive) != 2 || alive[0] != 0 || alive[1] != 1 {
		t.Errorf("after floor reaches the kill: alive=%v, want [0 1]", alive)
	}
	if c.Kills() != 1 || !c.Faulty() {
		t.Errorf("Kills=%d Faulty=%v", c.Kills(), c.Faulty())
	}
}

func TestInjectValidation(t *testing.T) {
	c := New(Config{Nodes: 2, WorkersPerNode: 1, MemPerNode: 1 << 20,
		NetBandwidth: 1e6, DiskBandwidth: 1e6})
	if err := c.Inject(Fault{Kind: FaultKill, Node: 9, At: 0}); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := c.Inject(Fault{Kind: FaultSlow, Node: 0, At: 0, Factor: 0.5}); err == nil {
		t.Error("non-slowing factor accepted")
	}
	if err := c.Inject(
		Fault{Kind: FaultKill, Node: 0, At: at(time.Second)},
		Fault{Kind: FaultKill, Node: 1, At: at(time.Second)},
	); err == nil {
		t.Error("schedule killing every node accepted")
	}
	if err := c.Inject(
		Fault{Kind: FaultSlow, Node: 0, At: at(time.Second), Factor: 2},
		Fault{Kind: FaultSlow, Node: 0, At: at(2 * time.Second), Factor: 8},
	); err == nil {
		t.Error("two slowdowns of one node accepted; only one would be simulated")
	}
	// A rejected schedule must leave the cluster untouched: the valid
	// kill bundled with the bad factor above must not have applied.
	if c.Faulty() || c.Kills() != 0 {
		t.Errorf("rejected Inject mutated the cluster: faulty=%v kills=%d", c.Faulty(), c.Kills())
	}
	if h := c.Submit(0, []*Handle{{End: at(10 * time.Second)}}, time.Second, nil); h.Err != nil {
		t.Errorf("node killed by a rejected schedule: %v", h.Err)
	}
}

func TestParseScenario(t *testing.T) {
	for _, tc := range []struct {
		in    string
		kills int
		n     int
	}{
		{"baseline", 0, 0},
		{"", 0, 0},
		{"kill:1@30%", 1, 1},
		{"kill:1@10s", 1, 1},
		{"kill:1@30%+kill:2@55%", 2, 2},
		{"slow:3@25%*4", 0, 1},
		{"kill:1@30%+slow:2@10s*2.5", 1, 2},
	} {
		sc, err := ParseScenario(tc.in)
		if err != nil {
			t.Errorf("ParseScenario(%q): %v", tc.in, err)
			continue
		}
		if len(sc) != tc.n || sc.Kills() != tc.kills {
			t.Errorf("ParseScenario(%q) = %d specs (%d kills), want %d (%d)", tc.in, len(sc), sc.Kills(), tc.n, tc.kills)
		}
	}
	for _, bad := range []string{
		"kill:1", "kill:@30%", "kill:x@30%", "kill:1@0%", "kill:1@120%",
		"kill:1@-3s", "slow:1@30%", "slow:1@30%*1", "melt:1@30%", "kill:1@soon",
		// NaN fails every comparison, so a range check alone lets these
		// through, and a NaN fraction resolves to a kill at t=0.
		"kill:1@NaN%", "kill:1@Inf%", "kill:1@5e-324%", "slow:1@10s*NaN",
		"slow:1@10s*Inf", "slow:1@NaN%*2", "kill:1@30%+slow:2@10s*NaN",
	} {
		if _, err := ParseScenario(bad); err == nil {
			t.Errorf("ParseScenario(%q) should fail", bad)
		}
	}
	// Fractions resolve against the reference makespan; absolutes do not.
	sc, err := ParseScenario("kill:1@50%+kill:2@7s")
	if err != nil {
		t.Fatal(err)
	}
	fs := sc.Faults(10 * time.Second)
	if fs[0].At != at(5*time.Second) || fs[1].At != at(7*time.Second) {
		t.Errorf("resolved faults %v", fs)
	}
	if sc.MaxNode() != 2 || !sc.TouchesNode(1) || sc.TouchesNode(0) {
		t.Errorf("scenario node accounting wrong: %v", sc)
	}
}

// ParseScenario takes strings from outside the program (a job's
// overrides, the -kill-at flag): it must not panic, and a scenario it
// accepts must place every fault on a real node at a time after 0, and
// slow it by a finite factor above 1.
func FuzzParseScenario(f *testing.F) {
	for _, seed := range []string{
		"baseline", "kill:1@30%", "kill:1@30%+kill:2@55%", "slow:1@5%*4",
		"kill:1@10s", "slow:2@10s*2.5", "kill:1@NaN%", "slow:1@10s*Inf",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sc, err := ParseScenario(s)
		if err != nil {
			return
		}
		for _, spec := range sc {
			if spec.Node < 0 {
				t.Errorf("%q: node %d", s, spec.Node)
			}
			if !(spec.Frac > 0 && spec.Frac < 1) && !(spec.Frac == 0 && spec.At > 0) {
				t.Errorf("%q: fraction %v, time %v", s, spec.Frac, spec.At)
			}
			if spec.Kind == FaultSlow && (!(spec.Factor > 1) || math.IsInf(spec.Factor, 0)) {
				t.Errorf("%q: slow factor %v", s, spec.Factor)
			}
		}
	})
}
