package myria

import (
	"fmt"
	"testing"
	"testing/quick"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/objstore"
)

func quickEngine(nodes, workers int) *Engine {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = nodes
	return New(cluster.New(cfg), objstore.New(), cost.Default(), Config{WorkersPerNode: workers})
}

// Property: a shuffle preserves the multiset of tuples, for arbitrary
// key distributions and worker counts.
func TestShufflePreservesTuplesProperty(t *testing.T) {
	f := func(keys []uint8, workers8 uint8) bool {
		e := quickEngine(2, int(workers8%4)+1)
		q := e.NewQuery()
		tuples := make([]Tuple, len(keys))
		counts := make(map[string]int)
		for i, k := range keys {
			key := fmt.Sprintf("g%d", k%7)
			tuples[i] = Tuple{Key: key, Value: i, Size: 1 << 10}
			counts[key]++
		}
		rel := e.RelationFromTuples(q, "xs", tuples)
		sh, _ := q.shuffle(rel, func(tp Tuple) string { return tp.Key })
		if _, err := q.Finish(); err != nil {
			return false
		}
		got := make(map[string]int)
		for _, tp := range sh.Tuples() {
			got[tp.Key]++
		}
		if len(got) != len(counts) {
			return false
		}
		for k, n := range counts {
			if got[k] != n {
				return false
			}
		}
		return len(sh.Tuples()) == len(tuples)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: after a shuffle, every tuple of a key lives on that key's
// hash-home worker (co-location, the invariant GroupByApply relies on).
func TestShuffleColocatesKeysProperty(t *testing.T) {
	f := func(keys []uint8) bool {
		e := quickEngine(3, 2)
		q := e.NewQuery()
		tuples := make([]Tuple, len(keys))
		for i, k := range keys {
			tuples[i] = Tuple{Key: fmt.Sprintf("g%d", k%5), Value: i, Size: 64}
		}
		rel := e.RelationFromTuples(q, "xs", tuples)
		sh, gks := q.shuffle(rel, func(tp Tuple) string { return tp.Key })
		if _, err := q.Finish(); err != nil {
			return false
		}
		for w := 0; w < e.Workers(); w++ {
			for i, tp := range sh.parts[w] {
				if e.hashWorker(tp.Key) != w || gks[w][i] != tp.Key {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: GroupByApply sees every group exactly once with all its
// members.
func TestGroupByApplyCompleteGroupsProperty(t *testing.T) {
	f := func(keys []uint8) bool {
		if len(keys) == 0 {
			return true
		}
		e := quickEngine(2, 2)
		q := e.NewQuery()
		tuples := make([]Tuple, len(keys))
		want := make(map[string]int)
		for i, k := range keys {
			key := fmt.Sprintf("g%d", k%4)
			tuples[i] = Tuple{Key: key, Value: 1, Size: 32}
			want[key]++
		}
		rel := e.RelationFromTuples(q, "xs", tuples)
		out := q.GroupByApply(rel, func(tp Tuple) string { return tp.Key },
			PyUDA{Name: "count", Op: cost.Mean, F: func(key string, group []Tuple) []Tuple {
				return []Tuple{{Key: key, Value: len(group), Size: 8}}
			}})
		if _, err := q.Finish(); err != nil {
			return false
		}
		got := make(map[string]int)
		for _, tp := range out.Tuples() {
			got[tp.Key] = tp.Value.(int)
		}
		if len(got) != len(want) {
			return false
		}
		for k, n := range want {
			if got[k] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
