// Package volume provides dense 3-D and 4-D floating point arrays — the
// in-memory representation of image volumes in both use cases — together
// with the slicing, averaging and block-partitioning operations the
// pipelines are built from.
package volume

import (
	"fmt"
	"math"
)

// V3 is a dense 3-D volume in x-fastest (column-major by x) layout:
// element (x,y,z) lives at index x + NX*(y + NY*z).
type V3 struct {
	NX, NY, NZ int
	Data       []float64
}

// New3 returns a zeroed nx×ny×nz volume.
func New3(nx, ny, nz int) *V3 {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("volume: invalid dims %dx%dx%d", nx, ny, nz))
	}
	return &V3{NX: nx, NY: ny, NZ: nz, Data: make([]float64, nx*ny*nz)}
}

// Len returns the number of voxels.
func (v *V3) Len() int { return v.NX * v.NY * v.NZ }

// Idx returns the linear index of (x,y,z).
func (v *V3) Idx(x, y, z int) int { return x + v.NX*(y+v.NY*z) }

// At returns the voxel at (x,y,z).
func (v *V3) At(x, y, z int) float64 { return v.Data[v.Idx(x, y, z)] }

// Set assigns the voxel at (x,y,z).
func (v *V3) Set(x, y, z int, val float64) { v.Data[v.Idx(x, y, z)] = val }

// Clone returns a deep copy.
func (v *V3) Clone() *V3 {
	c := New3(v.NX, v.NY, v.NZ)
	copy(c.Data, v.Data)
	return c
}

// SameShape reports whether v and u have identical dimensions.
func (v *V3) SameShape(u *V3) bool {
	return v.NX == u.NX && v.NY == u.NY && v.NZ == u.NZ
}

// Stats summarizes a volume.
type Stats struct {
	Min, Max, Mean, Std float64
	NonZero             int
}

// Summarize computes Stats over the volume.
func (v *V3) Summarize() Stats {
	s := Stats{Min: math.Inf(1), Max: math.Inf(-1)}
	var sum, sq float64
	for _, x := range v.Data {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		if x != 0 {
			s.NonZero++
		}
		sum += x
		sq += x * x
	}
	n := float64(v.Len())
	s.Mean = sum / n
	variance := sq/n - s.Mean*s.Mean
	if variance > 0 {
		s.Std = math.Sqrt(variance)
	}
	return s
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// two same-shaped volumes. It panics on shape mismatch.
func MaxAbsDiff(a, b *V3) float64 {
	if !a.SameShape(b) {
		panic("volume: shape mismatch")
	}
	var m float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > m {
			m = d
		}
	}
	return m
}

// Mean3 returns the per-voxel mean of the given same-shaped volumes.
func Mean3(vols []*V3) *V3 {
	if len(vols) == 0 {
		panic("volume: mean of no volumes")
	}
	out := New3(vols[0].NX, vols[0].NY, vols[0].NZ)
	Mean3Into(out, vols)
	return out
}

// Mean3Into computes the per-voxel mean of vols into dst, which must
// match their shape. Existing contents of dst are overwritten, so dst
// may come from an arena. Accumulation order matches Mean3 exactly.
func Mean3Into(dst *V3, vols []*V3) {
	if len(vols) == 0 {
		panic("volume: mean of no volumes")
	}
	if !dst.SameShape(vols[0]) {
		panic("volume: shape mismatch in mean")
	}
	clear(dst.Data)
	for _, v := range vols {
		if !v.SameShape(dst) {
			panic("volume: shape mismatch in mean")
		}
		for i, x := range v.Data {
			dst.Data[i] += x
		}
	}
	inv := 1 / float64(len(vols))
	for i := range dst.Data {
		dst.Data[i] *= inv
	}
}

// V4 is a time/volume series: T same-shaped 3-D volumes (one per dMRI
// measurement). Volumes are stored individually so they can be distributed.
type V4 struct {
	Vols []*V3
}

// New4 wraps the given volumes, checking that shapes match.
func New4(vols []*V3) *V4 {
	if len(vols) == 0 {
		panic("volume: empty 4-D volume")
	}
	for _, v := range vols[1:] {
		if !v.SameShape(vols[0]) {
			panic("volume: shape mismatch in 4-D volume")
		}
	}
	return &V4{Vols: vols}
}

// T returns the number of 3-D volumes.
func (v *V4) T() int { return len(v.Vols) }

// Shape returns the spatial dimensions.
func (v *V4) Shape() (nx, ny, nz int) {
	return v.Vols[0].NX, v.Vols[0].NY, v.Vols[0].NZ
}

// Select returns the volumes at the indices where keep is true, sharing
// underlying data (no copy) — a filter along the fourth dimension.
func (v *V4) Select(keep []bool) *V4 {
	if len(keep) != v.T() {
		panic("volume: select mask length mismatch")
	}
	// Count first so the slice is allocated once at its exact size,
	// instead of log(n) append growths per call on the ingest hot path.
	n := 0
	for _, k := range keep {
		if k {
			n++
		}
	}
	out := make([]*V3, 0, n)
	for i, k := range keep {
		if k {
			out = append(out, v.Vols[i])
		}
	}
	return New4(out)
}

// Block identifies a contiguous z-slab of voxels: a unit of parallelism for
// the model-fitting step (the paper partitions by blocks of voxels).
type Block struct {
	Z0, Z1 int // half-open z range
}

// Blocks splits nz z-planes into n near-equal slabs. Fewer than n blocks
// are returned when nz < n.
func Blocks(nz, n int) []Block {
	if n <= 0 {
		panic("volume: non-positive block count")
	}
	if n > nz {
		n = nz
	}
	var out []Block
	for i := 0; i < n; i++ {
		z0 := i * nz / n
		z1 := (i + 1) * nz / n
		if z1 > z0 {
			out = append(out, Block{Z0: z0, Z1: z1})
		}
	}
	return out
}

// TileZ splits nz z-planes into fixed-height tiles of at most rows
// planes each — the blocks Slabs streams. Unlike Blocks (which targets
// a worker count), TileZ targets a tile size, so the tile boundaries
// are independent of how many workers consume them.
func TileZ(nz, rows int) []Block {
	if rows <= 0 {
		rows = 1
	}
	out := make([]Block, 0, (nz+rows-1)/rows)
	for z0 := 0; z0 < nz; z0 += rows {
		z1 := z0 + rows
		if z1 > nz {
			z1 = nz
		}
		out = append(out, Block{Z0: z0, Z1: z1})
	}
	return out
}

// ExtractBlock copies the z-slab [b.Z0,b.Z1) of v into a new volume.
func ExtractBlock(v *V3, b Block) *V3 {
	nz := b.Z1 - b.Z0
	out := New3(v.NX, v.NY, nz)
	plane := v.NX * v.NY
	copy(out.Data, v.Data[b.Z0*plane:b.Z1*plane])
	return out
}

// InsertBlock copies block data (shaped by b) back into dst at slab b.
func InsertBlock(dst *V3, b Block, src *V3) {
	plane := dst.NX * dst.NY
	copy(dst.Data[b.Z0*plane:b.Z1*plane], src.Data)
}
