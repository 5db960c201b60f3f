// Package memo is a process-wide, single-flight table of values that
// are pure functions of their key: internal/core keeps the experiments'
// generated inputs in one, keyed by configuration, so the first
// experiment in a process builds a workload and every later one that
// asks for the same configuration is served it. A value is handed out
// as stored, to any number of callers at once, to read and never to
// write. The claim, the wait and the budget are Table's and know
// nothing of what it holds; a hit takes its lock only shared.
package memo

import (
	"sync"
	"sync/atomic"
)

// budget bounds the bytes one Table holds, over all its kinds. core's
// inputs hold 15.6 MB of encoded objects after a quick pass (six
// configs), beside 17.7 MB of decodes those objects hold, which the
// table does not count, and 46 MB for sweep-astro's seven fig10h
// surveys; a full-profile pass generates 140-200 MB of them (fig10h's
// 86-sensor survey alone is 65 MB) and drops them six times.
const budget = 64 << 20

// KindStats is one kind's traffic. A call that finds its key, computed
// or still being computed by another goroutine, is a hit; a miss is a
// call that ran the computation.
type KindStats struct {
	Hits, Misses uint64
	// Bytes is what the table currently holds for the kind.
	Bytes int64
}

// Stats is a snapshot of a table.
type Stats struct {
	Kinds []KindStats
	// Resets counts how often the table was dropped to stay in budget.
	Resets uint64
	// Bytes is what the table currently holds, never above the budget.
	Bytes int64
}

// Table computes each key's value once and shares it: a process-wide,
// single-flight map whose values are accounted against the budget.
// Values are handed out as stored, to any number of callers at once,
// so V is immutable or its users treat it so.
type Table[K comparable, V any] struct {
	mu      sync.RWMutex // shared for a hit
	entries map[K]*entry[V]
	stats   Stats           // all but the hits
	hits    []atomic.Uint64 // per kind
}

// entry is one key's value. Everything but done and ready is written
// by the goroutine that computes it, before ready is set and done
// closed, and is immutable afterwards.
type entry[V any] struct {
	done  chan struct{}
	ready atomic.Bool // done is closed: a hit on a finished entry skips the channel
	ok    bool        // false when nothing was stored: compute failed, panicked or outgrew the budget
	kind  int
	val   V
	bytes int64
}

// NewTable returns an empty table that counts its traffic under kinds
// labels.
func NewTable[K comparable, V any](kinds int) *Table[K, V] {
	return &Table[K, V]{entries: make(map[K]*entry[V]), stats: Stats{Kinds: make([]KindStats, kinds)}, hits: make([]atomic.Uint64, kinds)}
}

// Do returns what compute returns for key: a value and the bytes it
// holds. The first call on a key runs compute and the table keeps the
// value; every other call, including one that arrives while the first
// is still computing, waits for that value and gets the same one. A
// failed compute stores nothing, and neither does a value larger than
// the whole budget: it goes to its own caller, and callers that waited
// on it compute for themselves. A hit takes the lock only shared.
func (t *Table[K, V]) Do(kind int, key K, compute func() (V, int64, error)) (V, error) {
	t.mu.RLock()
	e, found := t.entries[key]
	t.mu.RUnlock()
	if !found {
		t.mu.Lock()
		if e, found = t.entries[key]; !found {
			e = &entry[V]{done: make(chan struct{}), kind: kind}
			t.entries[key] = e
			t.stats.Kinds[kind].Misses++
		}
		t.mu.Unlock()
	}

	if found {
		t.hits[kind].Add(1)
		if !e.ready.Load() {
			<-e.done
		}
		if !e.ok {
			val, _, err := compute()
			return val, err
		}
		return e.val, nil
	}

	// Also on a panic in compute: waiters must not hang, and the key
	// must not stay claimed.
	defer func() {
		if !e.ok {
			t.mu.Lock()
			if t.entries[key] == e {
				delete(t.entries, key)
			}
			t.mu.Unlock()
		}
		e.ready.Store(true)
		close(e.done)
	}()
	val, n, err := compute()
	if err != nil || n > budget {
		return val, err
	}
	e.val, e.bytes, e.ok = val, n, true
	t.keep(key, e)
	return val, nil
}

// keep accounts a computed entry against the budget. An insert that
// would pass it drops the whole table first: the working set of a pass
// fits several times over, so eviction order would be bookkeeping for a
// case that only an unrelated, larger workload in the same process can
// reach. Values already handed out stay valid, the table only forgets
// them. Entries still being computed are dropped with the rest; they
// reach their waiters through the entry itself and come back here when
// done.
func (t *Table[K, V]) keep(key K, e *entry[V]) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stats.Bytes+e.bytes > budget {
		t.entries = make(map[K]*entry[V])
		t.stats.Bytes = 0
		for k := range t.stats.Kinds {
			t.stats.Kinds[k].Bytes = 0
		}
		t.stats.Resets++
	}
	if cur, ok := t.entries[key]; ok && cur != e {
		return // recomputed after a reset; the first to finish is kept
	}
	t.entries[key] = e
	t.stats.Bytes += e.bytes
	t.stats.Kinds[e.kind].Bytes += e.bytes
}

// Each calls fn on every value the table holds, in no order. fn runs
// under the table's lock and must not call the table.
func (t *Table[K, V]) Each(fn func(key K, val V)) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for key, e := range t.entries {
		if e.ready.Load() { // else still being computed
			fn(key, e.val) // every kept entry is ok: a failed one is deleted before it is ready
		}
	}
}

// Snapshot reports the table's counters since it was made.
func (t *Table[K, V]) Snapshot() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := t.stats
	s.Kinds = append([]KindStats(nil), s.Kinds...)
	for k := range s.Kinds {
		s.Kinds[k].Hits = t.hits[k].Load()
	}
	return s
}
