// Package memo is the process-wide, content-keyed table behind the
// staged inputs the tables read. An engine model's virtual time comes
// from the cost model alone, and its values are computed only when its
// output is read (package lazy), but three steps run when a run does,
// because what they produce sets records a table reads: a staged FITS
// exposure decoded (fits.DecodeStaged: its header places it on the
// patch grid), a staged NIfTI or NumPy object decoded (the neuroscience
// engines' ingest) and SciDB's aio_input() CSV crossing
// (tsv.RoundTripCSV: its length sets the ingest expansion). Five
// engines, every cluster size and every experiment send the same
// objects through them again and again. Hasher.Shared computes each
// distinct input once per process and hands every caller the stored
// value itself, to read and never to write. The functions they wrap —
// fits.DecodeExposure, nifti.Decode4, npy.Decode, tsv.EncodeCSV and
// tsv.DecodeCSV — never consult the table.
//
// A staged object is keyed by the digest the object store keeps with
// its bytes, and the CSV crossing by its volume's content. A volume's
// content digest is computed once per held value, not once per call:
// the table gives every volume it keeps its digest (volume.V3.Digest),
// and Digest reads it off the volume, so the key of a decoded input on
// its way to CSV reads none of its voxels. The decoded neuroscience
// inputs (kind Load) live in a second table under the same budget, so
// the many values that are cheap to make again never drop the others.
//
// The claim, the wait and the budget are Table's and know nothing of
// volumes, and a hit takes its lock only shared; internal/core keeps the
// experiments' generated inputs in a third Table, keyed by configuration.
package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"
	"sync/atomic"
	"unsafe"

	"imagebench/internal/volume"
)

// Kind names the stage an entry belongs to. It is part of every key,
// so two stages never answer each other, and the index of the per-kind
// counters.
type Kind int

const (
	Text   Kind = iota // SciDB's aio_input() CSV crossing, tsv.RoundTripCSV
	Decode             // a staged FITS exposure, fits.DecodeStaged
	Load               // a staged NIfTI or NumPy object, decoded; the values table
	numKinds
)

// Kinds lists every kind, in counter order.
func Kinds() []Kind { return []Kind{Text, Decode, Load} }

// String is the kind's label on /metrics.
func (k Kind) String() string { return [numKinds]string{"text", "decode", "load"}[k] }

// table is where the kind's values are held.
func (k Kind) table() *Table[Key, any] {
	if k == Load {
		return values
	}
	return stages
}

// budget bounds the bytes one Table holds, over all its kinds. A
// quick-profile pass over every experiment stores 18.0 MB: 12.1 MB in
// the stage table (2.95 text, 9.19 decode) and 5.9 MB of load in the
// values table, so none is dropped on the way. A full-profile pass
// resets the two tables 5-7 times between them, depending on how its
// cells interleave: decode misses 9.8-11.1 k of its 19,347 calls. core's
// inputs hold 15.6 MB after a quick pass (six configs) and 46 MB for
// sweep-astro's seven fig10h surveys; a full-profile pass generates
// 140-200 MB of them (fig10h's 86-sensor survey alone is 65 MB) and
// drops them six times.
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
	// IndexedDigests and ContentDigests count the volume digests keys
	// were built from (Digest): carried by a volume a table held, or
	// hashed from the voxels. Only the package's Snapshot fills them,
	// and it adds up its two tables' resets and bytes.
	IndexedDigests, ContentDigests uint64
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

// Key identifies one input of one stage by content.
type Key [sha256.Size]byte

// stages holds the text and decode kinds and values the loads
// (Kind.table).
var stages, values = NewTable[Key, any](int(numKinds)), NewTable[Key, any](int(numKinds))

// index gives each volume a value carries its content digest
// (volume.V3.Digest).
func index(v any) {
	var vols []*volume.V3
	switch v := v.(type) {
	case *volume.V3:
		vols = []*volume.V3{v}
	case *volume.V4:
		vols = v.Vols
	case interface{ Volume() *volume.V3 }: // a volume with a stage's by-product
		vols = []*volume.V3{v.Volume()}
	}
	for _, c := range vols {
		if c.Digest() == nil { // a volume of an earlier value keeps its own
			c.SetDigest(contentDigest(c))
		}
	}
}

// Shared ends the key and returns what compute returns for the input it
// identifies: a pointer and the bytes behind it. The first call on a
// key runs compute, exactly the code an unmemoized caller would run,
// and the table keeps that pointer; every other caller on the key gets
// the same one, to read and never to write (see Table.Do for failures
// and the budget). The inputs are not retained. k must not be used
// afterwards.
func (k *Hasher) Shared(compute func() (any, int64, error)) (any, error) {
	kind := k.kind // read before sum gives k back to the pool
	return kind.table().Do(int(kind), k.sum(), func() (any, int64, error) {
		v, n, err := compute()
		if err == nil && n <= budget { // the table keeps it
			index(v)
		}
		return v, n, err
	})
}

var indexedDigests, contentDigests atomic.Uint64 // Digest's two sources, since process start

// Digest returns v's content digest, its shape and the raw bits of
// every voxel hashed. A volume a table has held carries it, so none of
// its voxels is read and no table is consulted; any other (a copy
// sharing a held volume's Data too) is hashed now, to the same digest.
func Digest(v *volume.V3) Key {
	if d := v.Digest(); d != nil {
		indexedDigests.Add(1)
		return *d
	}
	contentDigests.Add(1)
	return contentDigest(v)
}

func contentDigest(v *volume.V3) Key {
	k := NewKey(numKinds) // a first word no stage key has
	k.U64(uint64(v.NX))
	k.U64(uint64(v.NY))
	k.U64(uint64(v.NZ))
	k.Floats(v.Data)
	return k.sum()
}

// EachShared calls fn on every value the tables hold; see Table.Each.
func EachShared(fn func(key Key, v any)) {
	stages.Each(fn)
	values.Each(fn)
}

// Snapshot reports the memo's counters since process start, Kinds
// indexed by Kind: each kind's from its own table, the two tables'
// resets and bytes added up.
func Snapshot() Stats {
	s, v := stages.Snapshot(), values.Snapshot()
	copy(s.Kinds[Load:], v.Kinds[Load:])
	s.Resets += v.Resets
	s.Bytes += v.Bytes
	s.IndexedDigests, s.ContentDigests = indexedDigests.Load(), contentDigests.Load()
	return s
}

// Hasher builds the key of one input from 64-bit words through a chunk
// buffer. Hashers are pooled so that a hit allocates nothing.
type Hasher struct {
	kind Kind
	h    hash.Hash
	buf  []byte
}

var hashers = sync.Pool{New: func() any {
	return &Hasher{h: sha256.New(), buf: make([]byte, 0, 4096)}
}}

// NewKey starts the key of one input of kind; the kind is its first
// word. Shared ends it.
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
	if cap(k.buf)-len(k.buf) < 8 {
		k.flush()
	}
	k.buf = binary.LittleEndian.AppendUint64(k.buf, x)
}

func (k *Hasher) flush() {
	k.h.Write(k.buf)
	k.buf = k.buf[:0]
}

// Floats adds the length, then the raw bits of every value: 0 and -0,
// and NaNs with different payloads, are different content. The values
// go to the digest as they lie in memory, not word by word through the
// buffer: keys never leave the process, so the host's byte order is as
// good as any.
func (k *Hasher) Floats(xs []float64) {
	k.U64(uint64(len(xs)))
	if len(xs) > 0 {
		k.flush()
		k.h.Write(unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), len(xs)*8))
	}
}

// Bytes adds the length, then the bytes as they lie: a digest. They go
// through the chunk buffer, so a digest on the caller's stack stays
// there.
func (k *Hasher) Bytes(b []byte) {
	k.U64(uint64(len(b)))
	for len(b) > 0 {
		if len(k.buf) == cap(k.buf) {
			k.flush()
		}
		n := copy(k.buf[len(k.buf):cap(k.buf)], b)
		k.buf, b = k.buf[:len(k.buf)+n], b[n:]
	}
}

// Volume adds v's content digest (Digest). A nil volume (an absent
// mask) is its own marker, different from any volume.
func (k *Hasher) Volume(v *volume.V3) {
	if v == nil {
		k.U64(0)
		return
	}
	d := Digest(v)
	k.U64(1)
	k.Bytes(d[:])
}

// sum returns the key and gives the hasher back.
func (k *Hasher) sum() Key {
	k.flush()
	var key Key
	copy(key[:], k.h.Sum(k.buf[:0])) // through buf, so key stays on the stack
	hashers.Put(k)
	return key
}
