package volume

import (
	"sync"
	"sync/atomic"
)

// Arena is a sync.Pool-backed scratch allocator for volumes: the shared
// buffer supply behind the streaming pipelines. Stages Get a volume,
// fill every voxel, hand it downstream, and the consumer returns it
// with Put once the data has been reduced or written out — so a
// pipeline's steady-state footprint is its live blocks, not one fresh
// allocation per stage per call.
//
// Volumes returned by Get have arbitrary contents (use New3 when the
// algorithm reads before writing). A volume whose backing array is
// large enough is reshaped rather than reallocated, so one arena serves
// mixed geometries. All methods are safe for concurrent use, and a nil
// *Arena degrades to plain allocation (Get == New3, Put == no-op), so
// APIs can take an optional arena without branching.
type Arena struct {
	pool sync.Pool

	gets   atomic.Int64
	puts   atomic.Int64
	misses atomic.Int64
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Scratch is the process-wide shared arena: the imaging kernels, the
// synthetic generators, and the reference pipelines all recycle their
// intermediates through it, so a sweep's cells reuse each other's
// buffers instead of each allocating a private working set.
var Scratch = NewArena()

// Get returns an nx×ny×nz volume whose contents are arbitrary — the
// caller must write every voxel before reading any. On a nil arena it
// simply allocates.
func (a *Arena) Get(nx, ny, nz int) *V3 {
	if a == nil {
		return New3(nx, ny, nz)
	}
	a.gets.Add(1)
	if v, _ := a.pool.Get().(*V3); v != nil {
		if v.NX == nx && v.NY == ny && v.NZ == nz {
			return v
		}
		// Wrong shape: reshape the backing array when it is big enough.
		if cap(v.Data) >= nx*ny*nz {
			return &V3{NX: nx, NY: ny, NZ: nz, Data: v.Data[:nx*ny*nz]}
		}
	}
	a.misses.Add(1)
	return New3(nx, ny, nz)
}

// Put returns a volume to the arena for reuse. The caller must not
// touch v afterwards: another goroutine may already be filling it.
// Put(nil) and Put on a nil arena are no-ops. Only Put a volume an
// arena's Get returned, never one a decode shares read-only
// (objstore.Object.Decoded) and never one whose Data is shared with a
// retained volume (a Slab view, a Select alias): the next Get would
// scribble over live results.
func (a *Arena) Put(v *V3) {
	if a == nil || v == nil {
		return
	}
	a.puts.Add(1)
	a.pool.Put(v)
}

// ArenaStats reports arena traffic: Gets/Puts are calls, Misses the
// Gets that had to allocate because the pool was empty or too small.
// Steady-state pipelines should show Misses ≪ Gets.
type ArenaStats struct {
	Gets, Puts, Misses int64
}

// Stats returns a snapshot of the arena's counters (zero on nil).
func (a *Arena) Stats() ArenaStats {
	if a == nil {
		return ArenaStats{}
	}
	return ArenaStats{Gets: a.gets.Load(), Puts: a.puts.Load(), Misses: a.misses.Load()}
}
