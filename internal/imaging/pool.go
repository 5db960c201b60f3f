package imaging

import (
	"context"

	"imagebench/internal/volume"
)

// The kernels' tiled worker pool is a stage over the volume streaming
// layer: work arrives as a pull-based stream of z-slab blocks
// (volume.Tiles), a bounded worker set consumes it (volume.ForEach),
// and scratch buffers come from the shared volume.Scratch arena. Every
// voxel is computed by exactly the same expression as the sequential
// loop and each tile writes a disjoint output slab, so results are
// bit-identical to the sequential path for any worker count and any
// tile size.

// tileRows is the tile height in z-planes. One plane per tile keeps
// load balancing fine-grained enough for masked kernels, where whole
// slabs of background cost almost nothing.
const tileRows = 1

// runTiles applies fn to each tile of nz z-planes on a pool of workers
// goroutines (<=0 = GOMAXPROCS, never more than there are tiles). It
// returns ctx.Err() if the context is canceled; workers stop picking up
// new tiles at the next tile boundary, so a nonzero error means the
// output may be incomplete and must be discarded by the caller.
func runTiles(ctx context.Context, nz, workers int, fn func(z0, z1 int)) error {
	tiles := (nz + tileRows - 1) / tileRows
	workers = min(volume.ResolveWorkers(workers), tiles)
	return volume.ForEach(ctx, volume.Tiles(nz, tileRows), workers, func(bv volume.BlockVol) {
		fn(bv.B.Z0, bv.B.Z1)
	})
}
