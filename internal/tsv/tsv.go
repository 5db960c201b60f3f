// Package tsv implements the tab- and comma-separated volume codecs
// SciDB's boundaries impose: the stream() interface hands chunk data to
// external processes as TSV (Section 4.1: "assumes that TSV can be
// easily digested by the external process"), and the aio_input() ingest
// path parses CSV ("we first convert the NIfTI files into
// Comma-Separated Value files"). One line per cell: x, y, z
// coordinates and the value.
package tsv

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"

	"imagebench/internal/volume"
)

// Encode serializes a volume as TSV: one "x\ty\tz\tvalue" line per cell.
func Encode(v *volume.V3) []byte {
	return encode(v, '\t')
}

// EncodeCSV serializes a volume as CSV: one "x,y,z,value" line per cell.
func EncodeCSV(v *volume.V3) []byte {
	return encode(v, ',')
}

// maxFloatLen is the longest 'g' shortest-precision float64 spelling
// ("-2.2250738585072014e-308").
const maxFloatLen = 24

func encode(v *volume.V3, sep byte) []byte {
	// Sized for the longest possible line, so the buffer never grows.
	lineMax := len(strconv.Itoa(v.NX)) + len(strconv.Itoa(v.NY)) + len(strconv.Itoa(v.NZ)) + 4 + maxFloatLen
	buf := make([]byte, 0, v.Len()*lineMax)
	for z := 0; z < v.NZ; z++ {
		for y := 0; y < v.NY; y++ {
			for x := 0; x < v.NX; x++ {
				buf = strconv.AppendInt(buf, int64(x), 10)
				buf = append(buf, sep)
				buf = strconv.AppendInt(buf, int64(y), 10)
				buf = append(buf, sep)
				buf = strconv.AppendInt(buf, int64(z), 10)
				buf = append(buf, sep)
				buf = strconv.AppendFloat(buf, v.At(x, y, z), 'g', -1, 64)
				buf = append(buf, '\n')
			}
		}
	}
	return buf
}

// CSVLen is len(EncodeCSV(v)), the length of the text SciDB's
// aio_input() ingest parses, formatted a value at a time into a stack
// buffer: no text is kept.
func CSVLen(v *volume.V3) int {
	var buf [maxFloatLen]byte
	n := 4 * v.Len() // three commas and a newline a line
	for z := 0; z < v.NZ; z++ {
		for y := 0; y < v.NY; y++ {
			for x := 0; x < v.NX; x++ {
				n += len(strconv.AppendInt(buf[:0], int64(x), 10)) +
					len(strconv.AppendInt(buf[:0], int64(y), 10)) +
					len(strconv.AppendInt(buf[:0], int64(z), 10)) +
					len(strconv.AppendFloat(buf[:0], v.At(x, y, z), 'g', -1, 64))
			}
		}
	}
	return n
}

// RoundTrip is Decode(Encode(v)): the volume as the far side of SciDB's
// stream() parses it, and the length of the TSV text that crossed. Only
// a forced output reads it.
func RoundTrip(v *volume.V3) (parsed *volume.V3, encodedLen int, err error) {
	text := encode(v, '\t')
	parsed, err = decode(text, '\t')
	return parsed, len(text), err
}

// Decode parses a TSV volume stream back into a volume. The grid extent
// is inferred from the maximum coordinates; cells may appear in any
// order, and every cell of the grid must be present exactly once.
func Decode(data []byte) (*volume.V3, error) {
	return decode(data, '\t')
}

// DecodeCSV parses a CSV volume stream.
func DecodeCSV(data []byte) (*volume.V3, error) {
	return decode(data, ',')
}

// maxLine is the longest line decode reads; a longer one fails the
// stream with bufio.ErrTooLong.
const maxLine = 1<<20 - 1

func decode(data []byte, sep byte) (*volume.V3, error) {
	type cell struct {
		x, y, z int
		v       float64
	}
	// One cell per line, and the shortest line ("0\t0\t0\t0\n") is 8
	// bytes, so a stream of blank lines cannot inflate the table.
	cells := make([]cell, 0, min(bytes.Count(data, []byte{'\n'})+1, (len(data)+1)/8))
	mx, my, mz := 0, 0, 0 // largest coordinates seen
	for line := 1; len(data) > 0; line++ {
		text := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			text, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(text) > maxLine {
			return nil, fmt.Errorf("tsv: %w", bufio.ErrTooLong)
		}
		text = bytes.TrimSpace(text)
		if len(text) == 0 {
			continue
		}
		if n := bytes.Count(text, []byte{sep}) + 1; n != 4 {
			return nil, fmt.Errorf("tsv: line %d: %d fields, want 4", line, n)
		}
		var parts [4][]byte
		for i := 0; i < 3; i++ {
			j := bytes.IndexByte(text, sep)
			parts[i], text = text[:j], text[j+1:]
		}
		parts[3] = text
		// The conversions below do not allocate: the callee keeps no
		// reference to its argument, and a field is a few bytes.
		x, err := strconv.Atoi(string(bytes.TrimSpace(parts[0])))
		if err != nil {
			return nil, fmt.Errorf("tsv: line %d: bad x %q", line, parts[0])
		}
		y, err := strconv.Atoi(string(bytes.TrimSpace(parts[1])))
		if err != nil {
			return nil, fmt.Errorf("tsv: line %d: bad y %q", line, parts[1])
		}
		z, err := strconv.Atoi(string(bytes.TrimSpace(parts[2])))
		if err != nil {
			return nil, fmt.Errorf("tsv: line %d: bad z %q", line, parts[2])
		}
		v, err := strconv.ParseFloat(string(bytes.TrimSpace(parts[3])), 64)
		if err != nil {
			return nil, fmt.Errorf("tsv: line %d: bad value %q", line, parts[3])
		}
		if x < 0 || y < 0 || z < 0 {
			return nil, fmt.Errorf("tsv: line %d: negative coordinate", line)
		}
		mx, my, mz = max(mx, x), max(my, y), max(mz, z)
		cells = append(cells, cell{x, y, z, v})
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("tsv: empty stream")
	}
	// len(cells) == nx*ny*nz, tested by division: coordinates come from
	// the input, so the product can overflow and wrap round to the cell
	// count (and MaxInt+1 is negative, which divides nothing).
	nx, ny, nz := mx+1, my+1, mz+1
	if n := len(cells); n%nx != 0 || n/nx%ny != 0 || n/nx/ny != nz {
		return nil, fmt.Errorf("tsv: %d cells for a %d×%d×%d grid", n, uint64(mx)+1, uint64(my)+1, uint64(mz)+1)
	}
	out := volume.New3(nx, ny, nz)
	seen := make([]bool, len(cells))
	for _, c := range cells {
		idx := out.Idx(c.x, c.y, c.z)
		if seen[idx] {
			return nil, fmt.Errorf("tsv: duplicate cell (%d,%d,%d)", c.x, c.y, c.z)
		}
		seen[idx] = true
		out.Data[idx] = c.v
	}
	return out, nil
}
