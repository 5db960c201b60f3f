package myria

import (
	"testing"

	"imagebench/internal/cost"
	"imagebench/internal/objstore"
	"imagebench/internal/synth"
)

// The allocation guards below hold each operator's own allocations
// constant in the number of records: the same count at 64 records as at
// 4096, with UDFs and decoders that allocate nothing themselves. An
// operator that grew a partition by appending from nil would allocate
// about log2(records) more times per worker, and one that grew a fanned-
// out partition by doubling would regrow it more often the longer it is.
// The tuples have no size, so the modeled durations, and with them the
// simulator's own bookings, are the same at any count.

// keyed returns n tuples of no size with distinct keys.
func keyed(n int) []Tuple {
	ts := make([]Tuple, n)
	for i := range ts {
		ts[i] = Tuple{Key: synth.FormatKey("k#####", i)}
	}
	return ts
}

// queryAllocs is what a query running op over a relation of n tuples
// allocates, averaged over runs on one engine.
func queryAllocs(n int, op func(q *Query, rel *Relation)) float64 {
	e, _, _ := engine(2, 2, Pipelined)
	q0 := e.NewQuery()
	rel := e.RelationFromTuples(q0, "R", keyed(n))
	e.RelationFromTuples(q0, "Mask", []Tuple{{Key: "k"}}) // a prefix of every key
	return testing.AllocsPerRun(20, func() {
		q := e.NewQuery()
		op(q, rel)
		q.Finish()
	})
}

// fanOut is a PyUDF emitting k copies of its input into one buffer it
// reuses, so it allocates nothing itself.
func fanOut(k int) PyUDF {
	buf := make([]Tuple, k)
	return PyUDF{Name: "fan", Op: cost.Filter, F: func(t Tuple) []Tuple {
		for i := range buf {
			buf[i] = t
		}
		return buf
	}}
}

func TestOperatorAllocsConstantInRecords(t *testing.T) {
	for _, c := range []struct {
		name string
		op   func(q *Query, rel *Relation)
	}{
		{"Apply fan-out 1", func(q *Query, rel *Relation) { q.Apply(rel, fanOut(1)) }},
		{"Apply fan-out 3", func(q *Query, rel *Relation) { q.Apply(rel, fanOut(3)) }},
		{"ScanWhere", func(q *Query, rel *Relation) {
			q.ScanWhere(rel, func(t Tuple) bool { return t.Key[len(t.Key)-1] != '0' })
		}},
		{"BroadcastJoin", func(q *Query, rel *Relation) {
			one := make([]Tuple, 1)
			q.BroadcastJoin("join", rel, q.eng.catalog["Mask"], func(l Tuple, _ []Tuple) []Tuple {
				one[0] = l
				return one
			})
		}},
		{"Collect", func(q *Query, rel *Relation) { q.Collect(rel) }},
	} {
		if small, large := queryAllocs(64, c.op), queryAllocs(4096, c.op); small != large {
			t.Errorf("%s allocates %v times at 64 records, %v at 4096", c.name, small, large)
		}
	}
}

func TestRelationFromTuplesAllocsConstantInRecords(t *testing.T) {
	allocs := func(n int) float64 {
		e, _, _ := engine(2, 2, Pipelined)
		q, ts := e.NewQuery(), keyed(n)
		return testing.AllocsPerRun(20, func() { e.RelationFromTuples(q, "R", ts) })
	}
	if small, large := allocs(64), allocs(4096); small != large {
		t.Errorf("RelationFromTuples allocates %v times at 64 records, %v at 4096", small, large)
	}
}

func TestIngestAllocsConstantInRecords(t *testing.T) {
	allocs := func(n int) float64 {
		e, _, store := engine(2, 2, Pipelined)
		// Empty objects, each decoding to a tuple built beforehand.
		tuples := map[string][]Tuple{}
		for i := 0; i < n; i++ {
			k := synth.FormatKey("in/#####", i)
			store.Put(k, nil, 0)
			tuples[k] = []Tuple{{Key: k}}
		}
		decode := func(obj objstore.Object) []Tuple { return tuples[obj.Key] }
		return testing.AllocsPerRun(20, func() { e.Ingest("R", "in/", decode) })
	}
	if small, large := allocs(64), allocs(4096); small != large {
		t.Errorf("Ingest allocates %v times at 64 objects, %v at 4096", small, large)
	}
}
