// Package nifti reads and writes NIfTI-1 files (the neuroimaging format of
// the paper's dMRI inputs): the 348-byte fixed header with the "n+1" magic,
// followed by a float32 voxel block (the HCP release format). Only the
// fields the pipelines need are interpreted, but files are valid NIfTI-1
// and round-trip exactly.
package nifti

import (
	"encoding/binary"
	"fmt"
	"math"

	"imagebench/internal/volume"
)

// DTFloat32 is the NIfTI-1 datatype code of float32 voxels, the only one
// this package reads or writes.
const DTFloat32 int16 = 16

const (
	headerSize = 348
	voxOffset  = 352 // header + 4-byte extension flag
	magicOff   = 344
)

// Header carries the subset of NIfTI-1 metadata the pipelines use.
type Header struct {
	Dim [8]int16 // dim[0]=rank, dim[1..4]=nx,ny,nz,nt
	// SclSlope and SclInter map stored values to real values:
	// real = stored×slope + inter. A zero slope means unscaled.
	SclSlope, SclInter float32
}

// Rank returns the number of dimensions.
func (h *Header) Rank() int { return int(h.Dim[0]) }

// Voxels returns the total number of data elements.
func (h *Header) Voxels() int {
	n := 1
	for i := 1; i <= h.Rank(); i++ {
		n *= int(h.Dim[i])
	}
	return n
}

// Encode4 serializes a 4-D volume series as a float32 NIfTI-1 file. The
// header fields it does not set stay zero, scl_slope among them, so the
// voxels are stored unscaled.
func Encode4(v *volume.V4) []byte {
	nx, ny, nz := v.Shape()
	dim := [8]int16{4, int16(nx), int16(ny), int16(nz), int16(v.T()), 1, 1, 1}
	out := make([]byte, voxOffset, voxOffset+4*nx*ny*nz*v.T())
	binary.LittleEndian.PutUint32(out[0:], headerSize)
	for i, d := range dim {
		binary.LittleEndian.PutUint16(out[40+2*i:], uint16(d))
	}
	binary.LittleEndian.PutUint16(out[70:], uint16(DTFloat32))
	binary.LittleEndian.PutUint16(out[72:], 32)                           // bitpix
	binary.LittleEndian.PutUint32(out[108:], math.Float32bits(voxOffset)) // vox_offset
	copy(out[magicOff:], "n+1\x00")
	for _, vol := range v.Vols {
		for _, x := range vol.Data {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(x)))
		}
	}
	return out
}

// DecodeHeader parses and validates the NIfTI-1 header.
func DecodeHeader(data []byte) (*Header, error) {
	if len(data) < voxOffset {
		return nil, fmt.Errorf("nifti: file too short (%d bytes)", len(data))
	}
	if binary.LittleEndian.Uint32(data[0:]) != headerSize {
		return nil, fmt.Errorf("nifti: bad sizeof_hdr")
	}
	if string(data[magicOff:magicOff+4]) != "n+1\x00" {
		return nil, fmt.Errorf("nifti: bad magic %q", data[magicOff:magicOff+4])
	}
	var h Header
	for i := range h.Dim {
		h.Dim[i] = int16(binary.LittleEndian.Uint16(data[40+2*i:]))
	}
	if dt := int16(binary.LittleEndian.Uint16(data[70:])); dt != DTFloat32 {
		return nil, fmt.Errorf("nifti: unsupported datatype %d", dt)
	}
	h.SclSlope = math.Float32frombits(binary.LittleEndian.Uint32(data[112:]))
	h.SclInter = math.Float32frombits(binary.LittleEndian.Uint32(data[116:]))
	if h.Rank() < 3 || h.Rank() > 4 {
		return nil, fmt.Errorf("nifti: unsupported rank %d", h.Rank())
	}
	for i := 1; i <= h.Rank(); i++ {
		if h.Dim[i] <= 0 {
			return nil, fmt.Errorf("nifti: non-positive dim[%d]=%d", i, h.Dim[i])
		}
	}
	return &h, nil
}

// Decode4 parses a 3-D or 4-D NIfTI-1 file into a volume series (a 3-D file
// yields a single-volume series).
func Decode4(data []byte) (*volume.V4, error) {
	return Decode4Arena(data, nil)
}

// Decode4Arena is Decode4 with the component volumes drawn from arena
// (nil means plain allocations). Every voxel is overwritten, so pooled
// buffers need no clearing; callers that release the volumes back to
// the arena make repeated subject decodes allocation-free in steady
// state.
func Decode4Arena(data []byte, arena *volume.Arena) (*volume.V4, error) {
	h, err := DecodeHeader(data)
	if err != nil {
		return nil, err
	}
	need := voxOffset + h.Voxels()*4
	if len(data) < need {
		return nil, fmt.Errorf("nifti: truncated data: have %d bytes, need %d", len(data), need)
	}
	slope, inter := float64(h.SclSlope), float64(h.SclInter)
	if slope == 0 {
		slope, inter = 1, 0
	}
	nx, ny, nz := int(h.Dim[1]), int(h.Dim[2]), int(h.Dim[3])
	nt := 1
	if h.Rank() == 4 {
		nt = int(h.Dim[4])
	}
	per := nx * ny * nz
	vols := make([]*volume.V3, nt)
	off := voxOffset
	for t := 0; t < nt; t++ {
		v := arena.Get(nx, ny, nz)
		for i := 0; i < per; i++ {
			raw := float64(math.Float32frombits(binary.LittleEndian.Uint32(data[off:])))
			v.Data[i] = raw*slope + inter
			off += 4
		}
		vols[t] = v
	}
	return volume.New4(vols), nil
}
