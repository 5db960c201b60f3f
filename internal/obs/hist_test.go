package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestHistogramShardedSemantics pins that sharding changed nothing
// observable: a deterministic set of observations produces exactly the
// exposition the unsharded layout produced — cumulative buckets, +Inf,
// _sum, and _count.
func TestHistogramShardedSemantics(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("t_lat", "help", []float64{0.25, 0.5, 1})
	for _, v := range []float64{0.125, 0.25, 0.5, 2, 1} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP t_lat help
# TYPE t_lat histogram
t_lat_bucket{le="0.25"} 2
t_lat_bucket{le="0.5"} 3
t_lat_bucket{le="1"} 4
t_lat_bucket{le="+Inf"} 5
t_lat_sum 3.875
t_lat_count 5
`
	if got := b.String(); got != want {
		t.Errorf("exposition changed under sharding:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many
// goroutines (run under -race in CI) and checks that no observation is
// lost or double-counted across the shards.
func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("t_conc", "", DefLatencyBuckets)
	const (
		goroutines = 16
		perG       = 2000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(i%100) / 1000)
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Errorf("count = %d, want %d", s.Count, goroutines*perG)
	}
	var sum uint64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != goroutines*perG {
		t.Errorf("bucket counts sum to %d, want %d", sum, goroutines*perG)
	}
	// Per goroutine: perG/100 full cycles of sum(0..99)/1000.
	wantSum := float64(goroutines) * (perG / 100) * (99 * 100 / 2) / 1000
	if math.Abs(s.Sum-wantSum) > 1e-6 {
		t.Errorf("sum = %v, want %v", s.Sum, wantSum)
	}
}

// TestHistogramShardCap proves shard growth is bounded even when the
// pool is drained (as a GC purge would): takeShard past the cap
// recycles existing shards instead of allocating forever.
func TestHistogramShardCap(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("t_cap", "", []float64{1})
	for i := 0; i < 10*h.maxShards; i++ {
		sh := h.takeShard() // never returned to the pool
		sh.count.Add(1)
	}
	h.mu.Lock()
	n := len(h.shards)
	h.mu.Unlock()
	if n > h.maxShards {
		t.Errorf("grew %d shards, cap is %d", n, h.maxShards)
	}
	if s := h.Snapshot(); s.Count != uint64(10*h.maxShards) {
		t.Errorf("recycled shards lost counts: %d, want %d", s.Count, 10*h.maxShards)
	}
}

// BenchmarkHistogramObserveParallel measures the Observe hot path under
// the serving path's concurrency shape: every P observing in a tight loop.
// Before sharding this serialized all cores on one cache line's CAS
// loop; after, each P mostly owns a pool-local shard.
func BenchmarkHistogramObserveParallel(b *testing.B) {
	r := NewRegistry()
	h := r.NewHistogram("b_lat", "", DefLatencyBuckets)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := 0.0001
		for pb.Next() {
			h.Observe(v)
			v += 0.0001
			if v > 1 {
				v = 0.0001
			}
		}
	})
	if s := h.Snapshot(); s.Count != uint64(b.N) {
		b.Fatalf("count = %d, want %d", s.Count, b.N)
	}
}
