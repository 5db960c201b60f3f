package cluster

import (
	"errors"
	"testing"
	"time"

	"imagebench/internal/vtime"
)

func small() *Cluster {
	return New(Config{Nodes: 2, WorkersPerNode: 2, MemPerNode: 1 << 20,
		NetBandwidth: 1e6, DiskBandwidth: 1e6})
}

func TestSubmitParallelism(t *testing.T) {
	c := small()
	// Two tasks on one node run on its two slots in parallel.
	h1 := c.Submit(0, nil, 10*time.Second, nil)
	h2 := c.Submit(0, nil, 10*time.Second, nil)
	if h1.End != h2.End {
		t.Errorf("two slots should finish together: %v vs %v", h1.End, h2.End)
	}
	// A third queues.
	h3 := c.Submit(0, nil, 10*time.Second, nil)
	if h3.End.Seconds() != 20 {
		t.Errorf("third task ends %v, want 20s", h3.End)
	}
	if c.Makespan() != h3.End {
		t.Errorf("makespan %v, want %v", c.Makespan(), h3.End)
	}
	if c.Tasks() != 3 {
		t.Errorf("tasks = %d", c.Tasks())
	}
}

func TestDependencyOrdering(t *testing.T) {
	c := small()
	a := c.Submit(0, nil, 5*time.Second, nil)
	b := c.Submit(1, []*Handle{a}, time.Second, nil)
	if b.End.Seconds() != 6 {
		t.Errorf("dependent task ends %v, want 6s", b.End)
	}
}

func TestErrorPropagation(t *testing.T) {
	c := small()
	boom := errors.New("boom")
	a := c.Submit(0, nil, time.Second, func() error { return boom })
	b := c.Submit(1, []*Handle{a}, time.Second, func() error {
		t.Error("dependent fn ran despite failed dependency")
		return nil
	})
	if !errors.Is(b.Err, boom) {
		t.Errorf("error did not propagate: %v", b.Err)
	}
	if c.Barrier(a, b).Err == nil {
		t.Error("barrier swallowed the error")
	}
}

func TestTransferCharges(t *testing.T) {
	c := small() // 1 MB/s network
	h := c.Transfer(0, 1, 1<<20)
	if s := h.End.Seconds(); s < 1.0 || s > 1.1 {
		t.Errorf("1MB at 1MB/s took %v", h.End)
	}
	// Same-node transfers are free.
	if h := c.Transfer(1, 1, 1<<30); h.End != c.Transfer(1, 1, 0).End {
		t.Error("self-transfer should be free")
	}
}

func TestTransferSharedNIC(t *testing.T) {
	c := small()
	// Two transfers out of node 0 serialize on its NIC.
	a := c.Transfer(0, 1, 1<<20)
	b := c.Transfer(0, 1, 1<<20)
	if b.End <= a.End {
		t.Errorf("second transfer should queue: %v vs %v", b.End, a.End)
	}
}

func TestBroadcastTree(t *testing.T) {
	cfg := Config{Nodes: 8, WorkersPerNode: 1, MemPerNode: 1 << 20, NetBandwidth: 1e6, DiskBandwidth: 1e6}
	c := New(cfg)
	h := c.Broadcast(0, 1<<20)
	// log2(8)=3 rounds of ~1s each.
	if s := h.End.Seconds(); s < 2.9 || s > 3.3 {
		t.Errorf("broadcast to 8 nodes took %v, want ~3s", h.End)
	}
}

func TestDiskOps(t *testing.T) {
	c := small()
	w := c.DiskWrite(0, 1<<20)
	r := c.DiskRead(0, 1<<20, w)
	if r.End.Seconds() < 1.9 {
		t.Errorf("write+read of 1MB at 1MB/s ended at %v", r.End)
	}
}

// TestChainedHandlesStayOnTheStack holds the Handle contract: the
// wrappers inline into the caller and never keep deps, so a chain carried
// by value allocates nothing. It fails if a wrapper grows past the
// inliner's budget or an edit lets deps escape. The disk ops, the
// transfer and the broadcast move zero bytes and the tasks run back to
// back, so no timeline grows.
func TestChainedHandlesStayOnTheStack(t *testing.T) {
	c := small()
	var h Handle
	allocs := testing.AllocsPerRun(100, func() {
		rd := c.DiskRead(0, 0, &h)
		x := c.Transfer(1, 0, 0, rd)
		task := c.Submit(0, []*Handle{x}, time.Millisecond, nil)
		b := c.Broadcast(0, 0, c.Barrier(task))
		h = *c.DiskWrite(0, 0, b)
	})
	if allocs != 0 {
		t.Errorf("a chain carried by value allocated %v times per link, want 0", allocs)
	}
	if h.End.Seconds() < 0.1 {
		t.Errorf("chain ended at %v, want at least 101 back-to-back 1ms tasks", h.End)
	}
}

func TestMemTracker(t *testing.T) {
	c := small()
	m := c.Mem(0)
	if err := m.Alloc(1 << 19); err != nil {
		t.Fatal(err)
	}
	if err := m.Alloc(1 << 20); !errors.Is(err, ErrOOM) {
		t.Fatalf("expected OOM, got %v", err)
	}
	if m.HighWater() != 1<<19 {
		t.Errorf("high water %d", m.HighWater())
	}
	m.Release(1 << 19)
	if m.Used() != 0 {
		t.Errorf("used %d after release", m.Used())
	}
	if err := m.Alloc(1 << 20); err != nil {
		t.Errorf("alloc after release: %v", err)
	}
	if c.MaxHighWater() != 1<<20 {
		t.Errorf("MaxHighWater = %d", c.MaxHighWater())
	}
}

// submitPicked books a task the way Dask does: PickNode chooses the
// node, then Submit reserves it there.
func submitPicked(c *Cluster, prefer []int, locality vtime.Duration, deps []*Handle, cost vtime.Duration) *Handle {
	return c.Submit(c.PickNode(prefer, locality, After(deps...), cost), deps, cost, nil)
}

func TestPickNodeBalances(t *testing.T) {
	c := small()
	var nodes []int
	for i := 0; i < 4; i++ {
		h := submitPicked(c, nil, 0, nil, 10*time.Second)
		nodes = append(nodes, h.Node)
	}
	// 4 slots total: all four tasks run at t=0 on distinct slots.
	if c.Makespan().Seconds() != 10 {
		t.Errorf("4 tasks on 4 slots: makespan %v", c.Makespan())
	}
	seen := map[int]int{}
	for _, n := range nodes {
		seen[n]++
	}
	if seen[0] != 2 || seen[1] != 2 {
		t.Errorf("tasks not balanced: %v", seen)
	}
}

func TestPickNodeLocality(t *testing.T) {
	c := small()
	// Node 1 is busy for 1s; with a generous locality window the task
	// still prefers node 1 (where its data lives).
	c.Submit(1, nil, time.Second, nil)
	c.Submit(1, nil, time.Second, nil)
	h := submitPicked(c, []int{1}, 2*time.Second, nil, time.Second)
	if h.Node != 1 {
		t.Errorf("task ran on node %d, want preferred node 1", h.Node)
	}
	// With no locality allowance it runs on the idle node 0.
	h2 := submitPicked(c, []int{1}, 0, nil, time.Second)
	if h2.Node != 0 {
		t.Errorf("task ran on node %d, want idle node 0", h2.Node)
	}
}

func TestOutOfOrderSubmissionBackfills(t *testing.T) {
	c := New(Config{Nodes: 1, WorkersPerNode: 1, MemPerNode: 1 << 20, NetBandwidth: 1e6, DiskBandwidth: 1e6})
	// A late-ready task is submitted first; an early-ready task submitted
	// afterwards must still use the idle slot before it.
	late := c.Submit(0, []*Handle{{End: vtime.Time(100 * time.Second)}}, 10*time.Second, nil)
	early := c.Submit(0, nil, 5*time.Second, nil)
	if early.End.Seconds() != 5 {
		t.Errorf("early task ends %v, want 5s", early.End)
	}
	if late.End.Seconds() != 110 {
		t.Errorf("late task ends %v, want 110s", late.End)
	}
}

func TestUtilization(t *testing.T) {
	c := small()
	c.Submit(0, nil, 10*time.Second, nil)
	u := c.Utilization()
	if u <= 0.24 || u > 0.26 { // 1 of 4 slots busy
		t.Errorf("utilization %v, want 0.25", u)
	}
}

// TestTransferHoldsBothNICsAtOnce: a transfer books its two NICs for the
// same interval even when the earliest common gap lies past many gaps
// that fit one NIC but not the other. Each 6 ms period below leaves the
// 2 ms transfer a gap on one NIC where the other is free for only 1 ms,
// so the search meets one such gap per step, about 40 steps, before the
// common gap after the last booking.
func TestTransferHoldsBothNICsAtOnce(t *testing.T) {
	c := small()
	const ms = time.Millisecond
	at := func(n int) vtime.Time { return vtime.Time(time.Duration(n) * ms) }
	src, dst := &c.node(0).nic, &c.node(1).nic
	for k := 0; k < 20; k++ {
		// src is free for 2 ms at 6k and for 1 ms at 6k+3; dst is free
		// for 1 ms at 6k and for 2 ms at 6k+3.
		src.Reserve(at(6*k+2), ms)
		src.Reserve(at(6*k+4), 2*ms)
		dst.Reserve(at(6*k+1), 2*ms)
		dst.Reserve(at(6*k+5), ms)
	}
	h := c.Transfer(0, 1, 2000) // 2 ms at small()'s 1 MB/s
	start := h.End - vtime.Time(2*ms)
	// The timelines coalesce neighbours, so the transfer's booking may be
	// part of a longer interval: ask only that one covers it.
	for _, nic := range []struct {
		name string
		tl   *vtime.GapTimeline
	}{{"src", src}, {"dst", dst}} {
		starts, ends := nic.tl.Intervals()
		covered := false
		for i := range starts {
			covered = covered || (starts[i] <= start && ends[i] >= h.End)
		}
		if !covered {
			t.Errorf("%s NIC is not busy over the transfer's [%v, %v)", nic.name, start, h.End)
		}
	}
}
