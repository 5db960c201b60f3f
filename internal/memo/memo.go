// Package memo is the process-wide, content-keyed table behind the
// pipeline's pure stages. Every engine model runs the real kernels
// although its virtual time comes from the cost model alone, so one
// pass over the experiments sends the same synthetic voxels through
// the same stage again and again: five engines, every experiment that
// sweeps a parameter the stage never sees (cluster size, fault
// scenario, tuning knob), every sweep cell. Hasher.Do computes each distinct
// input once per process and serves the rest from a table keyed by
// content, because the same voxels reach the call sites through
// different decoders (NIfTI, NumPy, SciDB's text round trips) and
// never as the same pointer.
//
// Three stages go through it, each from the package that owns the
// stage: imaging.NLMeans3Memo (Step 2N), tsv.RoundTrip and
// tsv.RoundTripCSV (SciDB's stream() and aio_input() text crossings)
// and dmri.FitFAMemo (Step 3N). The functions they wrap —
// imaging.NLMeans3*, tsv.Encode/Decode*, dmri.FitFA — never consult the
// table: they are what probes time and what fuzzers and exactness tests
// compare, and the streamed reference pipeline built on them is the
// independent result the engines are checked against.
package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"sync"

	"imagebench/internal/volume"
)

// Kind names the stage an entry belongs to. It is part of every key,
// so two stages never answer each other, and the index of the per-kind
// counters.
type Kind int

const (
	NLMeans Kind = iota // Step 2N, imaging.NLMeans3Memo
	Text                // tsv.RoundTrip, tsv.RoundTripCSV
	Fit                 // Step 3N, dmri.FitFAMemo
	numKinds
)

// Kinds lists every kind, in counter order.
func Kinds() []Kind { return []Kind{NLMeans, Text, Fit} }

// String is the kind's label on /metrics.
func (k Kind) String() string { return [numKinds]string{"nlmeans", "text", "fit"}[k] }

// budget bounds the volume bytes the table holds, over all kinds. A
// quick-profile pass over every experiment stores 6.7 MB; a
// full-profile pass produces about 76 MB of distinct results and so
// drops the table once on the way.
const budget = 64 << 20

// KindStats is one kind's traffic. A call that finds its key, computed
// or still being computed by another goroutine, is a hit; a miss is a
// call that ran the computation.
type KindStats struct {
	Hits, Misses uint64
	// Bytes is the volume data currently held for the kind.
	Bytes int64
}

// Stats is a snapshot of the table.
type Stats struct {
	Kinds [numKinds]KindStats
	// Resets counts how often the table was dropped to stay in budget.
	Resets uint64
	// Bytes is the volume data currently held, never above the budget.
	Bytes int64
}

// Key identifies one input of one stage by content.
type Key [sha256.Size]byte

// entry is one key's value. Everything but done is written by the
// goroutine that computes it, before done is closed, and is immutable
// afterwards: data is never handed out, only copied.
type entry struct {
	done       chan struct{}
	ok         bool // false when nothing was stored: compute failed, panicked or outgrew the budget
	kind       Kind
	nx, ny, nz int
	data       []float64
	aux        int64
}

var table = struct {
	mu      sync.Mutex
	entries map[Key]*entry
	stats   Stats
}{entries: make(map[Key]*entry)}

// Do ends the key and returns what compute returns for the input it
// identifies: a volume and one integer the stage defines (the encoded
// length of a text round trip; zero elsewhere). The first call on a key
// runs compute, exactly the code an unmemoized caller would run, and
// the table keeps a copy of the result; every other call, including one
// that arrives while the first is still computing, waits for that
// result and gets a fresh volume the caller owns. The inputs are not
// retained. A failed compute stores nothing, and neither does one
// whose volume is larger than the whole budget: the result goes to its
// own caller, and callers that waited on it compute for themselves. k
// must not be used afterwards.
func (k *Hasher) Do(compute func() (*volume.V3, int64, error)) (*volume.V3, int64, error) {
	kind := k.kind // read before sum gives k back to the pool
	return do(kind, k.sum(), compute)
}

func do(kind Kind, key Key, compute func() (*volume.V3, int64, error)) (*volume.V3, int64, error) {
	table.mu.Lock()
	e, found := table.entries[key]
	if found {
		table.stats.Kinds[kind].Hits++
	} else {
		e = &entry{done: make(chan struct{}), kind: kind}
		table.entries[key] = e
		table.stats.Kinds[kind].Misses++
	}
	table.mu.Unlock()

	if found {
		<-e.done
		if !e.ok {
			return compute()
		}
		out := volume.New3(e.nx, e.ny, e.nz)
		copy(out.Data, e.data)
		return out, e.aux, nil
	}

	// Also on a panic in compute: waiters must not hang, and the key
	// must not stay claimed.
	defer func() {
		if !e.ok {
			table.mu.Lock()
			if table.entries[key] == e {
				delete(table.entries, key)
			}
			table.mu.Unlock()
		}
		close(e.done)
	}()
	out, aux, err := compute()
	if err != nil {
		return nil, 0, err
	}
	if out.Bytes() > budget {
		return out, aux, nil // never kept, so not worth copying
	}
	e.nx, e.ny, e.nz, e.aux = out.NX, out.NY, out.NZ, aux
	e.data = append([]float64(nil), out.Data...)
	e.ok = true
	keep(key, e)
	return out, aux, nil
}

// keep accounts a computed entry against the budget. An insert that
// would pass it drops the whole table first: the working set of a pass
// fits several times over, so eviction order would be bookkeeping for a
// case that only an unrelated, larger workload in the same process can
// reach. Entries still being computed are dropped with the rest; they
// reach their waiters through the entry itself and come back here when
// done.
func keep(key Key, e *entry) {
	n := int64(len(e.data)) * 8
	table.mu.Lock()
	defer table.mu.Unlock()
	if table.stats.Bytes+n > budget {
		table.entries = make(map[Key]*entry)
		table.stats.Bytes = 0
		for k := range table.stats.Kinds {
			table.stats.Kinds[k].Bytes = 0
		}
		table.stats.Resets++
	}
	if cur, ok := table.entries[key]; ok && cur != e {
		return // recomputed after a reset; the first to finish is kept
	}
	table.entries[key] = e
	table.stats.Bytes += n
	table.stats.Kinds[e.kind].Bytes += n
}

// Snapshot reports the table's counters since process start.
func Snapshot() Stats {
	table.mu.Lock()
	defer table.mu.Unlock()
	return table.stats
}

// Hasher builds the key of one input from 64-bit words through a chunk
// buffer. Hashers are pooled so that a hit allocates its output volume
// and nothing else.
type Hasher struct {
	kind Kind
	h    hash.Hash
	buf  []byte
}

var hashers = sync.Pool{New: func() any {
	return &Hasher{h: sha256.New(), buf: make([]byte, 0, 4096)}
}}

// NewKey starts the key of one input of kind; the kind is its first
// word. Do ends it.
func NewKey(kind Kind) *Hasher {
	k := hashers.Get().(*Hasher)
	k.kind = kind
	k.h.Reset()
	k.buf = k.buf[:0]
	k.U64(uint64(kind))
	return k
}

// U64 adds one word.
func (k *Hasher) U64(x uint64) {
	k.buf = binary.LittleEndian.AppendUint64(k.buf, x)
	if len(k.buf) == cap(k.buf) {
		k.flush()
	}
}

func (k *Hasher) flush() {
	k.h.Write(k.buf)
	k.buf = k.buf[:0]
}

// Floats adds the length, then the raw bits of every value: 0 and -0,
// and NaNs with different payloads, are different content.
func (k *Hasher) Floats(xs []float64) {
	k.U64(uint64(len(xs)))
	for _, x := range xs {
		k.U64(math.Float64bits(x))
	}
}

// Volume adds the shape and the raw bits of every voxel. A nil volume
// (an absent mask) is its own marker, different from any volume.
func (k *Hasher) Volume(v *volume.V3) {
	if v == nil {
		k.U64(0)
		return
	}
	k.U64(1)
	k.U64(uint64(v.NX))
	k.U64(uint64(v.NY))
	k.U64(uint64(v.NZ))
	k.Floats(v.Data)
}

// sum returns the key and gives the hasher back.
func (k *Hasher) sum() Key {
	k.flush()
	var key Key
	k.h.Sum(key[:0])
	hashers.Put(k)
	return key
}
