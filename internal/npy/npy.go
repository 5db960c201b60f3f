// Package npy implements the minimal NumPy .npy v1.0 format for 3-D
// float64 arrays. The paper's Spark and Myria implementations stage
// per-volume pickled NumPy arrays in S3; this package is the Go equivalent
// of that staging format.
package npy

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"regexp"
	"strconv"

	"imagebench/internal/volume"
)

var magic = []byte("\x93NUMPY\x01\x00")

// Encode serializes a 3-D volume as a .npy v1.0 file with dtype <f8.
func Encode(v *volume.V3) []byte {
	header := fmt.Sprintf("{'descr': '<f8', 'fortran_order': False, 'shape': (%d, %d, %d), }",
		v.NZ, v.NY, v.NX) // NumPy C-order: shape (z,y,x) for x-fastest data
	// Pad header with spaces so that len(magic)+2+len(header) ≡ 0 mod 64,
	// ending with a newline, per the .npy spec.
	total := len(magic) + 2 + len(header) + 1
	pad := (64 - total%64) % 64
	header += string(bytes.Repeat([]byte{' '}, pad)) + "\n"

	// The output size is known exactly, so build it in place: one
	// allocation instead of the log(n) doubling copies (and per-voxel
	// Write calls) a bytes.Buffer would cost on this hot path.
	out := make([]byte, 0, len(magic)+2+len(header)+len(v.Data)*8)
	out = append(out, magic...)
	var hlen [2]byte
	binary.LittleEndian.PutUint16(hlen[:], uint16(len(header)))
	out = append(out, hlen[:]...)
	out = append(out, header...)
	for _, x := range v.Data {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
	}
	return out
}

var shapeRe = regexp.MustCompile(`'shape':\s*\((\d+),\s*(\d+),\s*(\d+)\s*,?\s*\)`)

// Decode parses a .npy file written by Encode back into a volume.
func Decode(data []byte) (*volume.V3, error) {
	if len(data) < len(magic)+2 || !bytes.Equal(data[:len(magic)], magic) {
		return nil, fmt.Errorf("npy: bad magic")
	}
	hlen := int(binary.LittleEndian.Uint16(data[len(magic):]))
	hdrStart := len(magic) + 2
	if len(data) < hdrStart+hlen {
		return nil, fmt.Errorf("npy: truncated header")
	}
	header := string(data[hdrStart : hdrStart+hlen])
	if !bytes.Contains([]byte(header), []byte("'<f8'")) {
		return nil, fmt.Errorf("npy: unsupported dtype in %q", header)
	}
	m := shapeRe.FindStringSubmatch(header)
	if m == nil {
		return nil, fmt.Errorf("npy: cannot parse shape in %q", header)
	}
	nz, _ := strconv.Atoi(m[1])
	ny, _ := strconv.Atoi(m[2])
	nx, _ := strconv.Atoi(m[3])
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return nil, fmt.Errorf("npy: bad shape %dx%dx%d", nx, ny, nz)
	}
	off := hdrStart + hlen
	if n := (len(data) - off) / 8; nx > n || ny > n/nx || nz > n/(nx*ny) { // before allocating, without overflow
		return nil, fmt.Errorf("npy: truncated data: %d bytes for %dx%dx%d voxels", len(data)-off, nx, ny, nz)
	}
	v := volume.New3(nx, ny, nz)
	for i := range v.Data {
		v.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		off += 8
	}
	return v, nil
}
