package volume

import (
	"context"
	"runtime"
)

// Pull-based block streams, the layer the streamed kernels are built
// on: one source (Slabs) yields the z-slab blocks of a volume one at a
// time, one stage (Map) transforms them ahead of the consumer into
// pooled scratch buffers, and two sinks reduce them: Collect into a
// materialized volume, Drain into nothing when a pipeline aborts. The
// decomposition only changes *when* memory exists — every block is
// computed by the same expression as the materialized loop and written
// to disjoint output ranges, so any composition is bit-identical to the
// one-shot form.

// BlockVol is one z-slab in flight through a stream: the slab's
// coordinates in the conceptual volume plus the backing data for planes
// [B.Z0, B.Z1). V may be a zero-copy view into a larger volume (Slab)
// or an arena-backed buffer a stage filled; Release returns it to its
// arena, and is a no-op for views and plain allocations.
type BlockVol struct {
	B Block
	V *V3

	arena *Arena
}

// Release returns the block's buffer to the arena it came from. The
// caller must not touch V afterwards. Safe to call on views and
// zero-value blocks.
func (bv *BlockVol) Release() {
	if bv.arena != nil {
		bv.arena.Put(bv.V)
		bv.arena, bv.V = nil, nil
	}
}

// Stream is a pull-based sequence of blocks. Next returns the next
// block and true, or a zero block and false after the last one.
// Streams are single-consumer.
type Stream interface {
	Next() (BlockVol, bool)
}

// sliceStream yields a fixed set of prepared blocks.
type sliceStream struct {
	blocks []BlockVol
	next   int
}

func (s *sliceStream) Next() (BlockVol, bool) {
	if s.next >= len(s.blocks) {
		return BlockVol{}, false
	}
	bv := s.blocks[s.next]
	s.next++
	return bv, true
}

// Slab returns a zero-copy view of the z-slab [b.Z0,b.Z1): a V3 that
// shares v's backing array. Mutating the view mutates v. A view must
// never be Put into an arena while v is live.
func (v *V3) Slab(b Block) *V3 {
	plane := v.NX * v.NY
	return &V3{NX: v.NX, NY: v.NY, NZ: b.Z1 - b.Z0, Data: v.Data[b.Z0*plane : b.Z1*plane : b.Z1*plane]}
}

// Slabs streams v as zero-copy tile views of at most rows z-planes
// each. The blocks carry v's data; nothing is copied and Release is a
// no-op.
func Slabs(v *V3, rows int) Stream {
	tiles := TileZ(v.NZ, rows)
	blocks := make([]BlockVol, len(tiles))
	for i, t := range tiles {
		blocks[i] = BlockVol{B: t, V: v.Slab(t)}
	}
	return &sliceStream{blocks: blocks}
}

// Map is the ordered transform stage: it applies fn to every block of
// src, producing one output block per input block in an arena-backed
// buffer of the same shape. fn receives the input block and the output
// buffer (contents arbitrary — write every voxel); the input is
// released afterwards if it is arena-backed. The returned stream
// yields output blocks in input order, so a downstream Collect
// assembles exactly the volume the materialized form would produce;
// the consumer owns each block and should Release it when done.
//
// The stage is a bounded FIFO of per-block futures. One dispatcher
// pulls src in order and, for each block, queues a one-slot result
// channel and then starts fn on its own goroutine; Next pops the queue
// head and waits for it. Emission order is queue order and read-ahead
// is queue capacity: at most workers (<=0 = GOMAXPROCS) blocks are
// queued behind the one the consumer is waiting for, so a pipeline
// holds at most workers+1 output buffers plus whatever the consumer
// has not yet released, regardless of stream length or of how slow any
// one block is. After ctx is canceled no further blocks are started,
// but the ones already started are still delivered. A consumer that
// stops early must therefore Drain the stream, which returns those
// buffers to the arena; unless ctx is canceled first, Drain also runs
// the rest of the stream, and without either the dispatcher never exits.
func Map(ctx context.Context, src Stream, arena *Arena, workers int, fn func(in BlockVol, out *V3)) Stream {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	queue := make(chan chan BlockVol, workers) // capacity = read-ahead bound
	go func() {
		defer close(queue)
		for ctx.Err() == nil {
			in, ok := src.Next()
			if !ok {
				return
			}
			res := make(chan BlockVol, 1)
			select {
			case queue <- res:
			case <-ctx.Done():
				in.Release()
				return
			}
			go func() {
				o := arena.Get(in.V.NX, in.V.NY, in.V.NZ)
				fn(in, o)
				in.Release()
				res <- BlockVol{B: in.B, V: o, arena: arena}
			}()
		}
	}()
	return mapStream(queue)
}

// mapStream is Map's output: the queue of pending results, oldest first.
type mapStream <-chan chan BlockVol

func (s mapStream) Next() (BlockVol, bool) {
	res, ok := <-s
	if !ok {
		return BlockVol{}, false
	}
	return <-res, true
}

// Collect is the materializing sink: it drains src into a fresh
// nx×ny×nz volume, copying each block into its z-slab and releasing
// it. Blocks must tile [0,nz) disjointly.
func Collect(nx, ny, nz int, src Stream) *V3 {
	out := New3(nx, ny, nz)
	for {
		bv, ok := src.Next()
		if !ok {
			return out
		}
		InsertBlock(out, bv.B, bv.V)
		bv.Release()
	}
}

// Drain pulls and releases every remaining block of src: the cleanup
// path when a pipeline aborts mid-stream, so arena-backed blocks are
// not stranded.
func Drain(src Stream) {
	for {
		bv, ok := src.Next()
		if !ok {
			return
		}
		bv.Release()
	}
}
