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
// Eight stages go through it, each from the package that owns the
// stage. Four are neuroscience's and return fresh copies (Hasher.Do):
// imaging.MedianOtsuMemo (the median-filter and Otsu half of Step 1N),
// imaging.NLMeans3Memo (Step 2N), tsv.RoundTrip and tsv.RoundTripCSV
// (SciDB's stream() and aio_input() text crossings) and dmri.FitFAMemo
// (Step 3N). Four are astronomy's and hand out the stored value itself,
// to read and never to write (Hasher.Shared): fits.DecodeStaged (a
// staged FITS exposure), astro.PreprocessMemo (Step 1A),
// skymap.CoaddPatchMemo (Step 3A) and astro.DetectMemo (Step 4A). The
// functions they wrap — imaging.MedianFilter3*, imaging.OtsuMask,
// imaging.NLMeans3*, tsv.Encode/Decode*, dmri.FitFA,
// fits.DecodeExposure, astro.Preprocess, skymap.CoaddPatch,
// astro.Detect — never consult the table: they are what probes time
// and what fuzzers and exactness tests compare, and the streamed
// reference pipelines built on them are the independent results the
// engines are checked against.
//
// A shared value need not be read again to key what is derived from it:
// the table knows the values it holds by pointer, so a calibration is
// keyed by the key of the decode it came from, and that by the digest
// the object store keeps with the staged bytes (Hasher.Origin). A value
// the table does not hold is keyed by its content, as everywhere else.
//
// The claim, the wait and the budget are Table's and know nothing of
// volumes; internal/core keeps the experiments' generated inputs in a
// second Table, keyed by their configuration.
package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"
	"unsafe"

	"imagebench/internal/volume"
)

// Kind names the stage an entry belongs to. It is part of every key,
// so two stages never answer each other, and the index of the per-kind
// counters.
type Kind int

const (
	NLMeans   Kind = iota // Step 2N, imaging.NLMeans3Memo
	Text                  // tsv.RoundTrip, tsv.RoundTripCSV
	Fit                   // Step 3N, dmri.FitFAMemo
	Mask                  // Step 1N after the mean, imaging.MedianOtsuMemo
	Decode                // a staged FITS exposure, fits.DecodeStaged
	Calibrate             // Step 1A, astro.PreprocessMemo
	Coadd                 // Step 3A, skymap.CoaddPatchMemo
	Detect                // Step 4A, astro.DetectMemo
	numKinds
)

// Kinds lists every kind, in counter order.
func Kinds() []Kind { return []Kind{NLMeans, Text, Fit, Mask, Decode, Calibrate, Coadd, Detect} }

// String is the kind's label on /metrics.
func (k Kind) String() string {
	return [numKinds]string{"nlmeans", "text", "fit", "mask", "decode", "calibrate", "coadd", "detect"}[k]
}

// budget bounds the bytes one Table holds, over all its kinds. The
// stage table stores 27.9 MB on a quick-profile pass over every
// experiment (3.2 nlmeans, 3.4 text, 0.06 each fit and mask; 9.2 each
// decode and calibrate, 2.8 coadd, 0.01 detect) and 55.6 MB on one
// sweep-astro round (23.7 each decode and calibrate for the 1,359
// distinct exposures of its seven fig10h surveys, 8.2 coadd), so
// neither is dropped on the way; a full-profile pass has about 76 MB of
// distinct neuroscience results alone and is. core's inputs hold
// 15.6 MB after a quick pass (six configs) and 46 MB for sweep-astro's
// seven fig10h surveys; a full-profile pass generates 140-200 MB of
// them (fig10h's 86-sensor survey alone is 65 MB) and drops them two or
// three times.
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
	mu      sync.Mutex
	entries map[K]*entry[V]
	stats   Stats
	// handle, when set, names a held value by identity (nil: it has
	// none), and origin maps each held value's handle back to its key.
	// The index goes with the entries: a handle found in it is a value
	// the table holds now, under that key.
	handle func(V) any
	origin map[any]K
}

// entry is one key's value. Everything but done is written by the
// goroutine that computes it, before done is closed, and is immutable
// afterwards.
type entry[V any] struct {
	done  chan struct{}
	ok    bool // false when nothing was stored: compute failed, panicked or outgrew the budget
	kind  int
	val   V
	bytes int64
}

// NewTable returns an empty table that counts its traffic under kinds
// labels.
func NewTable[K comparable, V any](kinds int) *Table[K, V] {
	return &Table[K, V]{entries: make(map[K]*entry[V]), stats: Stats{Kinds: make([]KindStats, kinds)}}
}

// Do returns what compute returns for key: a value and the bytes it
// holds. The first call on a key runs compute and the table keeps the
// value; every other call, including one that arrives while the first
// is still computing, waits for that value and gets the same one. A
// failed compute stores nothing, and neither does a value larger than
// the whole budget: it goes to its own caller, and callers that waited
// on it compute for themselves.
func (t *Table[K, V]) Do(kind int, key K, compute func() (V, int64, error)) (V, error) {
	t.mu.Lock()
	e, found := t.entries[key]
	if found {
		t.stats.Kinds[kind].Hits++
	} else {
		e = &entry[V]{done: make(chan struct{}), kind: kind}
		t.entries[key] = e
		t.stats.Kinds[kind].Misses++
	}
	t.mu.Unlock()

	if found {
		<-e.done
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
// them, their identities included: what is derived from one afterwards
// is keyed by its content. Entries still being computed are dropped
// with the rest; they
// reach their waiters through the entry itself and come back here when
// done.
func (t *Table[K, V]) keep(key K, e *entry[V]) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stats.Bytes+e.bytes > budget {
		t.entries = make(map[K]*entry[V])
		t.origin = nil
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
	if t.handle != nil {
		if h := t.handle(e.val); h != nil {
			if t.origin == nil {
				t.origin = make(map[any]K)
			}
			t.origin[h] = key
		}
	}
}

// KeyOf returns the key under which the table holds the value that
// handle names, if it holds it.
func (t *Table[K, V]) KeyOf(handle any) (K, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key, ok := t.origin[handle]
	return key, ok
}

// Each calls fn on every value the table holds, in no order. fn runs
// under the table's lock and must not call the table.
func (t *Table[K, V]) Each(fn func(key K, val V)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for key, e := range t.entries {
		select {
		case <-e.done:
			fn(key, e.val) // every kept entry is ok: a failed one is deleted before done closes
		default: // still being computed
		}
	}
}

// Snapshot reports the table's counters since it was made.
func (t *Table[K, V]) Snapshot() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.stats
	s.Kinds = append([]KindStats(nil), s.Kinds...)
	return s
}

// Key identifies one input of one stage by content.
type Key [sha256.Size]byte

// result is what the stage table keeps of one stage output: a copy of
// the volume, never handed out, only copied again (Do), or the pointer
// a stage's compute returned, handed out as it is (Shared).
type result struct {
	nx, ny, nz int
	data       []float64
	aux        int64
	shared     any
}

var table = func() *Table[Key, result] {
	t := NewTable[Key, result](int(numKinds))
	t.handle = func(r result) any { return r.shared }
	return t
}()

// Do ends the key and returns what compute returns for the input it
// identifies: a volume and one integer the stage defines (the encoded
// length of a text round trip; zero elsewhere). The first call on a key
// runs compute, exactly the code an unmemoized caller would run, and
// the table keeps a copy of the result; every other call waits for that
// result and gets a fresh volume the caller owns (see Table.Do for
// failures and the budget). The inputs are not retained. k must not be
// used afterwards.
func (k *Hasher) Do(compute func() (*volume.V3, int64, error)) (*volume.V3, int64, error) {
	kind := k.kind // read before sum gives k back to the pool
	return do(kind, k.sum(), compute)
}

func do(kind Kind, key Key, compute func() (*volume.V3, int64, error)) (*volume.V3, int64, error) {
	var mine *volume.V3 // what compute returned, if this call ran it
	r, err := table.Do(int(kind), key, func() (result, int64, error) {
		out, aux, err := compute()
		if err != nil {
			return result{}, 0, err
		}
		mine = out
		r := result{nx: out.NX, ny: out.NY, nz: out.NZ, aux: aux}
		if out.Bytes() <= budget { // else never kept, so not worth copying
			r.data = append([]float64(nil), out.Data...)
		}
		return r, out.Bytes(), nil
	})
	if err != nil || mine != nil {
		return mine, r.aux, err
	}
	out := volume.New3(r.nx, r.ny, r.nz)
	copy(out.Data, r.data)
	return out, r.aux, nil
}

// Shared ends the key like Do, for a stage whose result nobody writes
// to: compute returns a pointer and the bytes behind it, the table
// keeps that pointer, and every caller on the key gets the same one, to
// read. A value Shared returned is known to the table by identity while
// the table holds it, which is what Origin asks.
func (k *Hasher) Shared(compute func() (any, int64, error)) (any, error) {
	kind := k.kind // read before sum gives k back to the pool
	r, err := table.Do(int(kind), k.sum(), func() (result, int64, error) {
		v, n, err := compute()
		return result{shared: v}, n, err
	})
	return r.shared, err
}

// Origin adds v's lineage, the key the table holds it under, when v is
// a pointer Shared returned and the table still holds it: what was
// derived from a keyed input is keyed by that key, not by reading its
// bytes again. Otherwise (a value built elsewhere, a copy, anything
// handed out before a reset) it reports false, and the caller adds v's
// content; the two forms never share a key.
func (k *Hasher) Origin(v any) bool {
	parent, ok := table.KeyOf(v)
	if !ok {
		k.U64(0)
		return false
	}
	k.U64(1)
	k.Bytes(parent[:])
	return true
}

// EachShared calls fn on every value the stage table holds that Shared
// handed out; see Table.Each.
func EachShared(fn func(key Key, v any)) {
	table.Each(func(key Key, r result) {
		if r.shared != nil {
			fn(key, r.shared)
		}
	})
}

// Snapshot reports the stage table's counters since process start,
// Kinds indexed by Kind.
func Snapshot() Stats { return table.Snapshot() }

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
// and NaNs with different payloads, are different content. The values
// go to the digest as they lie in memory, not word by word through the
// buffer: keys never leave the process, so the host's byte order is as
// good as any.
func (k *Hasher) Floats(xs []float64) {
	k.U64(uint64(len(xs)))
	if len(xs) > 0 {
		k.raw(unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), len(xs)*8))
	}
}

// Bytes adds the length, then the bytes as they lie: a mask plane, a
// digest.
func (k *Hasher) Bytes(b []byte) {
	k.U64(uint64(len(b)))
	k.raw(b)
}

// Bools is Bytes for a validity plane; a bool is one byte, 0 or 1.
func (k *Hasher) Bools(b []bool) {
	k.Bytes(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(b))), len(b)))
}

func (k *Hasher) raw(b []byte) {
	k.flush()
	k.h.Write(b)
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
