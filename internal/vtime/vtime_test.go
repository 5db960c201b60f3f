package vtime

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeArithmetic(t *testing.T) {
	var z Time
	if got := z.Add(5 * time.Second); got.Seconds() != 5 {
		t.Errorf("Add = %v, want 5s", got)
	}
	if got := z.Add(-time.Second); got != z {
		t.Errorf("negative Add moved time backwards: %v", got)
	}
	a, b := Time(3*time.Second), Time(time.Second)
	if a.Sub(b) != 2*time.Second {
		t.Errorf("Sub = %v", a.Sub(b))
	}
	if !b.Before(a) || !a.After(b) {
		t.Error("Before/After inconsistent")
	}
	if Max(a, b, z) != a {
		t.Error("Max wrong")
	}
	if Max() != 0 {
		t.Error("empty Max should be the zero time (no constraint)")
	}
	if a.String() != "3.000s" {
		t.Errorf("String = %q", a.String())
	}
}

func TestTimelineReserve(t *testing.T) {
	var tl Timeline
	s1, e1 := tl.Reserve(0, 10)
	if s1 != 0 || e1 != Time(10) {
		t.Fatalf("first reserve [%v,%v]", s1, e1)
	}
	// Second reservation queues behind the first even if ready earlier.
	s2, e2 := tl.Reserve(5, 10)
	if s2 != Time(10) || e2 != Time(20) {
		t.Fatalf("second reserve [%v,%v]", s2, e2)
	}
	// A late-ready reservation starts at its ready time.
	s3, _ := tl.Reserve(100, 5)
	if s3 != Time(100) {
		t.Fatalf("third reserve starts %v, want 100ns", s3)
	}
	if tl.free != Time(105) {
		t.Errorf("free at %v, want 105ns", tl.free)
	}
}

func TestGapTimelineBackfill(t *testing.T) {
	var g GapTimeline
	// Book [100,110), then a later-submitted early-ready task must use
	// the idle time before it.
	g.Reserve(100, 10)
	s, e := g.Reserve(0, 10)
	if s != 0 || e != Time(10) {
		t.Fatalf("backfill got [%v,%v], want [0,10)", s, e)
	}
	// A task too big for the gap goes after the last booking.
	s, _ = g.Reserve(0, 95)
	if s != Time(110) {
		t.Fatalf("oversized task starts %v, want 110", s)
	}
}

func TestGapTimelineStartAtMatchesReserve(t *testing.T) {
	var g GapTimeline
	g.Reserve(10, 10)
	g.Reserve(40, 10)
	for _, tc := range []struct {
		ready Time
		d     time.Duration
	}{{0, 5}, {0, 15}, {12, 3}, {12, 30}, {45, 1}, {100, 7}} {
		want := g.StartAt(tc.ready, tc.d)
		var copyG GapTimeline
		copyG.ivs = slices.Clone(g.ivs)
		got, _ := copyG.Reserve(tc.ready, tc.d)
		if got != want {
			t.Errorf("StartAt(%v,%v)=%v but Reserve books %v", tc.ready, tc.d, want, got)
		}
	}
}

// TestGapTimelineStartAtReserveProperty is the randomized version of the
// agreement check above: under any sequence of reservations, probing with
// StartAt and then booking with Reserve must agree — the invariant the
// cluster scheduler's probe-then-reserve pattern depends on — and the
// coalesced busy list must stay sorted and strictly non-overlapping.
func TestGapTimelineStartAtReserveProperty(t *testing.T) {
	f := func(seeds []uint32) bool {
		var g GapTimeline
		for i, x := range seeds {
			if i > 300 {
				break
			}
			ready := Time(x%4096) * Time(time.Millisecond)
			d := time.Duration(x>>12%64) * time.Millisecond // zero-length allowed
			want := g.StartAt(ready, d)
			got, end := g.Reserve(ready, d)
			if got != want {
				t.Logf("StartAt(%v,%v)=%v but Reserve booked %v", ready, d, want, got)
				return false
			}
			if got < ready || end != got.Add(d) {
				return false
			}
			starts, ends := g.Intervals()
			for j := range starts {
				if ends[j] <= starts[j] {
					return false // empty or inverted interval survived
				}
				if j > 0 && starts[j] <= ends[j-1] {
					return false // overlap or missed coalesce
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGapTimelineNoOverlapProperty(t *testing.T) {
	// Property: any sequence of reservations yields non-overlapping
	// intervals, each starting at or after its ready time.
	f := func(seeds []uint16) bool {
		var g GapTimeline
		type iv struct{ s, e Time }
		var booked []iv
		for i, x := range seeds {
			if i > 200 {
				break
			}
			ready := Time(x%997) * Time(time.Millisecond)
			d := time.Duration(x%13+1) * time.Millisecond
			s, e := g.Reserve(ready, d)
			if s < ready || e.Sub(s) != d {
				return false
			}
			for _, b := range booked {
				if s < b.e && b.s < e {
					return false // overlap
				}
			}
			booked = append(booked, iv{s, e})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// oracleGap is GapTimeline as it was before the binary search and the
// neighbour-only coalesce: a scan from the first interval and a full
// coalescing pass after every booking. findGap, Reserve and coalesce are
// kept verbatim.
type oracleGap struct {
	starts, ends []Time
	busy         Duration
}

func (g *oracleGap) findGap(ready Time, d Duration) (start Time, i int) {
	start = ready
	for i = 0; i < len(g.starts); i++ {
		if g.starts[i] >= start.Add(d) {
			break // fits entirely before interval i
		}
		if g.ends[i] > start {
			start = g.ends[i] // push past interval i
		}
	}
	return start, i
}

func (g *oracleGap) Reserve(ready Time, d Duration) (start, end Time) {
	if d < 0 {
		d = 0
	}
	start, i := g.findGap(ready, d)
	end = start.Add(d)
	if d > 0 {
		g.starts = append(g.starts, 0)
		g.ends = append(g.ends, 0)
		copy(g.starts[i+1:], g.starts[i:])
		copy(g.ends[i+1:], g.ends[i:])
		g.starts[i] = start
		g.ends[i] = end
		g.busy += d
		// Coalesce with neighbours to keep the list short.
		g.coalesce()
	}
	return start, end
}

func (g *oracleGap) coalesce() {
	out := 0
	for i := 1; i < len(g.starts); i++ {
		if g.starts[i] <= g.ends[out] {
			if g.ends[i] > g.ends[out] {
				g.ends[out] = g.ends[i]
			}
		} else {
			out++
			g.starts[out] = g.starts[i]
			g.ends[out] = g.ends[i]
		}
	}
	g.starts = g.starts[:out+1]
	g.ends = g.ends[:out+1]
}

// replayGap books ops on a GapTimeline and on the oracle side by side
// and fails at the first step where the booked interval, the probe, the
// busy list or the busy total differ. An op is three words: which
// anchor ready is taken from (a booked interval's start or end, or
// anywhere), an offset from it, and a duration that may be zero or
// negative, or exactly fill the gap after the anchor.
func replayGap(t testing.TB, ops [][3]int64) {
	t.Helper()
	var g GapTimeline
	var o oracleGap
	for step, op := range ops {
		ready := Time(op[1] % 200)
		if n := int64(len(o.starts)); n > 0 && op[0]%3 != 0 {
			j := (op[0]/3%n + n) % n
			ready = o.ends[j]
			if op[0]%3 == 1 {
				ready = o.starts[j]
			}
			ready += Time(op[1] % 3)
		}
		d := Duration(op[2]%40 - 5)
		if i := firstStartAfter(o.starts, ready); op[2]%7 == 0 && i < len(o.starts) {
			d = o.starts[i].Sub(ready) // touches the next interval exactly
		}
		probe := g.StartAt(ready, d)
		s, e := g.Reserve(ready, d)
		ws, we := o.Reserve(ready, d)
		gs, ge := g.Intervals()
		if s != ws || e != we || probe != ws || !slices.Equal(gs, o.starts) || !slices.Equal(ge, o.ends) || g.Busy() != o.busy {
			t.Fatalf("step %d Reserve(%d, %d): [%d,%d) probe %d busy %d, intervals %d %d; oracle [%d,%d) busy %d, %d %d",
				step, ready, d, s, e, probe, g.Busy(), gs, ge, ws, we, o.busy, o.starts, o.ends)
		}
	}
}

// firstStartAfter is the index of the first start after ready.
func firstStartAfter(starts []Time, ready Time) int {
	i := 0
	for i < len(starts) && starts[i] <= ready {
		i++
	}
	return i
}

// The binary-searched, neighbour-coalescing GapTimeline books exactly
// what the scanning, fully-coalescing one did, over random sequences
// rich in zero and negative durations, ready times on an interval's
// start or end, and bookings that touch one or both neighbours.
func TestGapTimelineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for round := 0; round < 500; round++ {
		ops := make([][3]int64, 1+rng.Intn(120))
		for i := range ops {
			ops[i] = [3]int64{rng.Int63n(90), rng.Int63n(400) - 100, rng.Int63n(80)}
		}
		replayGap(t, ops)
	}
}

// FuzzGapTimeline is TestGapTimelineMatchesOracle over arbitrary
// booking sequences, read as little-endian triples of 16-bit words.
func FuzzGapTimeline(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 7, 0, 3, 0, 5, 0, 0, 0, 1, 0, 2, 0, 14, 0})
	f.Add([]byte{2, 0, 199, 0, 39, 0, 4, 0, 1, 0, 0, 0, 5, 0, 0, 0, 21, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		word := func(i int) int64 { return int64(int16(uint16(b[i]) | uint16(b[i+1])<<8)) }
		var ops [][3]int64
		for i := 0; i+6 <= len(b) && len(ops) < 500; i += 6 {
			ops = append(ops, [3]int64{word(i), word(i + 2), word(i + 4)})
		}
		replayGap(t, ops)
	})
}

// BenchmarkGapTimelineReserve books into the middle of a busy list of
// n to 2n intervals, scattered over it: n one-tick bookings three ticks
// apart, then one booking in each gap, touching neither neighbour,
// before the list is reset to n.
func BenchmarkGapTimelineReserve(b *testing.B) {
	for _, n := range []int{10, 1000, 10000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			var base GapTimeline
			for k := 0; k < n; k++ {
				base.Reserve(Time(4*k), 1)
			}
			var g GapTimeline
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%n == 0 {
					g.ivs = append(g.ivs[:0], base.ivs...)
				}
				k := i * 7919 % n
				g.Reserve(Time(4*k+2), 1)
			}
		})
	}
}

// sink keeps what an allocation guard builds on the heap.
var sink []interval

// Reserve's insert path grows the one interval slice: booking n disjoint
// intervals allocates exactly as often as appending n intervals to one
// slice does, and not once for each of two.
func TestGapTimelineInsertAllocsOneSlice(t *testing.T) {
	const n = 1000
	book := testing.AllocsPerRun(5, func() {
		var g GapTimeline
		for i := 0; i < n; i++ {
			g.Reserve(Time(2*i), 1)
		}
		sink = g.ivs
	})
	grow := testing.AllocsPerRun(5, func() {
		sink = nil
		for i := 0; i < n; i++ {
			sink = append(sink, interval{})
		}
	})
	if book != grow {
		t.Errorf("booking %d intervals allocates %v times, appending them to one slice %v", n, book, grow)
	}
}
