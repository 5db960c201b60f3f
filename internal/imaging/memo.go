package imaging

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"sync"

	"imagebench/internal/volume"
)

// The Step 2N memo. Every engine model runs the real kernel although
// its virtual time comes from the cost model alone, so one pass over
// the experiments denoises the same synthetic volumes under the same
// masks again and again: five engines, every experiment that sweeps a
// parameter the kernel never sees (cluster size, fault scenario,
// tuning knob), every sweep cell. NLMeans3Memo computes each distinct
// (volume, mask, opts) once per process and serves the rest from a
// table keyed by content, because the same voxels reach the call sites
// through different decoders (NIfTI, NumPy, SciDB's TSV round trip) and
// never as the same pointer.
//
// NLMeans3, NLMeans3Ctx and NLMeans3Stream never consult the table:
// they are what probes time and exactness tests compare, and the
// streamed reference pipeline built on them is the independent result
// the engines are checked against.

// memoBudget bounds the output bytes the memo holds. A quick-profile
// pass stores 3.2 MB and a full-profile pass about 39 MB.
const memoBudget = 64 << 20

// MemoStats is a snapshot of the Step 2N memo's traffic.
type MemoStats struct {
	Hits, Misses uint64
	// Resets counts how often the table was dropped to stay in budget.
	Resets uint64
	// Bytes is the output data currently held, never above the budget.
	Bytes int64
}

type memoKey [sha256.Size]byte

var memo = struct {
	mu      sync.Mutex
	entries map[memoKey][]float64 // immutable once stored, never handed out
	stats   MemoStats
}{entries: make(map[memoKey][]float64)}

// NLMeans3Memo is NLMeans3 behind the process-wide memo: bit-identical
// output, computed once per distinct input content. The key covers the
// shape and raw bits of v and of mask (a nil mask is its own key, not
// an all-ones mask) and the options the output depends on — not
// Workers, which never changes a bit of it. The result is always a
// fresh volume the caller owns, and the inputs are not retained.
func NLMeans3Memo(v, mask *volume.V3, opts NLMeansOpts) *volume.V3 {
	opts = opts.withDefaults()
	key := memoKeyOf(v, mask, opts)

	memo.mu.Lock()
	data, ok := memo.entries[key]
	if ok {
		memo.stats.Hits++
	} else {
		memo.stats.Misses++
	}
	memo.mu.Unlock()
	if ok {
		// Stored slices are never written again, so the copy needs no
		// lock even if the table is dropped meanwhile.
		out := volume.New3(v.NX, v.NY, v.NZ)
		copy(out.Data, data)
		return out
	}

	// Concurrent first calls on one input each run the kernel; they
	// produce the same bits and the first to finish is kept.
	out := NLMeans3(v, mask, opts)
	memoStore(key, append([]float64(nil), out.Data...))
	return out
}

// memoStore keeps data under key. An insert that would pass the budget
// drops the whole table first: the working set of a pass fits many
// times over, so eviction order would be bookkeeping for a case that
// only an unrelated, larger workload in the same process can reach.
func memoStore(key memoKey, data []float64) {
	n := int64(len(data)) * 8
	if n > memoBudget {
		return
	}
	memo.mu.Lock()
	defer memo.mu.Unlock()
	if _, ok := memo.entries[key]; ok {
		return
	}
	if memo.stats.Bytes+n > memoBudget {
		memo.entries = make(map[memoKey][]float64)
		memo.stats.Bytes = 0
		memo.stats.Resets++
	}
	memo.entries[key] = data
	memo.stats.Bytes += n
}

// NLMeans3MemoStats reports the memo's counters since process start.
func NLMeans3MemoStats() MemoStats {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	return memo.stats
}

func memoKeyOf(v, mask *volume.V3, opts NLMeansOpts) memoKey {
	k := keyHashers.Get().(*keyHasher)
	defer keyHashers.Put(k)
	k.h.Reset()
	k.volume(v)
	if mask == nil {
		k.u64(0)
	} else {
		k.u64(1)
		k.volume(mask)
	}
	k.u64(uint64(opts.PatchRadius))
	k.u64(uint64(opts.SearchRadius))
	k.u64(math.Float64bits(opts.H))
	k.flush()
	var key memoKey
	k.h.Sum(key[:0])
	return key
}

// keyHasher feeds 64-bit words to a hash through a chunk buffer. They
// are pooled so that a hit allocates its output volume and nothing
// else.
type keyHasher struct {
	h   hash.Hash
	buf []byte
}

var keyHashers = sync.Pool{New: func() any {
	return &keyHasher{h: sha256.New(), buf: make([]byte, 0, 4096)}
}}

func (k *keyHasher) u64(x uint64) {
	k.buf = binary.LittleEndian.AppendUint64(k.buf, x)
	if len(k.buf) == cap(k.buf) {
		k.flush()
	}
}

func (k *keyHasher) flush() {
	k.h.Write(k.buf)
	k.buf = k.buf[:0]
}

// volume hashes the shape, then the raw bits of every voxel: 0 and -0,
// and NaNs with different payloads, are different content.
func (k *keyHasher) volume(v *volume.V3) {
	k.u64(uint64(v.NX))
	k.u64(uint64(v.NY))
	k.u64(uint64(v.NZ))
	for _, x := range v.Data {
		k.u64(math.Float64bits(x))
	}
}
