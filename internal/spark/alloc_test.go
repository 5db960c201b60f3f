package spark

import (
	"testing"

	"imagebench/internal/cost"
	"imagebench/internal/objstore"
	"imagebench/internal/synth"
)

// fanOut is a UDF emitting k copies of its input into one buffer it
// reuses, so it allocates nothing itself.
func fanOut(k int) UDF {
	buf := make([]Pair, k)
	return UDF{Name: "fan", Op: cost.Filter, F: func(p Pair) []Pair {
		for i := range buf {
			buf[i] = p
		}
		return buf
	}}
}

// The allocation guards hold a stage's own allocations constant in the
// number of records: the same count at 64 records as at 4096, with UDFs
// and decoders that allocate nothing themselves, over records of no
// size, so the modeled durations are the same at any count. Every
// action resets the uncached lineage, so each run recomputes the chain.
func TestStageAllocsConstantInRecords(t *testing.T) {
	pairs := func(n int) []Pair {
		ps := make([]Pair, n)
		for i := range ps {
			ps[i] = Pair{Key: synth.FormatKey("k#####", i)}
		}
		return ps
	}
	// objects is an RDD over n empty objects, each decoding to a record
	// built beforehand.
	objects := func(s *Session, store *objstore.Store, n int) *RDD {
		recs := map[string][]Pair{}
		for i := 0; i < n; i++ {
			k := synth.FormatKey("in/#####", i)
			store.Put(k, nil, 0)
			recs[k] = []Pair{{Key: k}}
		}
		return s.Objects("in/", 4, func(obj objstore.Object) []Pair { return recs[obj.Key] })
	}
	for _, c := range []struct {
		name   string
		action func(s *Session, store *objstore.Store, n int) func()
	}{
		{"narrow chain", func(s *Session, _ *objstore.Store, n int) func() {
			rdd := s.Parallelize("in", pairs(n), 4).Map(fanOut(1)).Map(fanOut(3))
			return func() { rdd.Materialize() }
		}},
		{"Collect", func(s *Session, _ *objstore.Store, n int) func() {
			rdd := s.Parallelize("in", pairs(n), 4).Map(fanOut(1))
			return func() { rdd.Collect() }
		}},
		{"source fetch", func(s *Session, store *objstore.Store, n int) func() {
			rdd := objects(s, store, n)
			return func() { rdd.Materialize() }
		}},
	} {
		allocs := func(n int) float64 {
			s, _, store := session(2)
			return testing.AllocsPerRun(20, c.action(s, store, n))
		}
		if small, large := allocs(64), allocs(4096); small != large {
			t.Errorf("%s allocates %v times at 64 records, %v at 4096", c.name, small, large)
		}
	}
}
