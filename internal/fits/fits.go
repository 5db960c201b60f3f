// Package fits reads and writes FITS image files (the astronomy format of
// the paper's inputs): 2880-byte header blocks of 80-character keyword
// cards followed by big-endian image data padded to 2880 bytes. Each file
// holds one 3-plane image (flux, variance, mask as NAXIS3=3) plus the
// metadata the pipeline needs (visit, sensor, sky position).
package fits

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"imagebench/internal/imaging"
	"imagebench/internal/skymap"
)

const blockSize = 2880
const cardSize = 80

// File is a decoded single-HDU FITS image.
type File struct {
	Keywords map[string]string
	Planes   []*imaging.Image // NAXIS3 planes, each NAXIS1×NAXIS2
}

// putCard writes the header card "KEY     = value", the value
// right-justified to column 30, over the first bytes of dst, which the
// caller has filled with spaces. Keys are at most 8 bytes, values 20.
func putCard(dst []byte, key, value string) {
	copy(dst, key)
	dst[8] = '='
	copy(dst[30-len(value):], value)
}

// EncodeExposure serializes an exposure as a FITS file with three planes:
// flux, variance, and mask (mask bits stored as float values, as the HiTS
// files do via a separate integer plane).
func EncodeExposure(e *skymap.Exposure) []byte {
	cards := [...][2]string{
		{"SIMPLE", "T"},
		{"BITPIX", "-32"},
		{"NAXIS", "3"},
		{"NAXIS1", strconv.Itoa(e.Flux.W)},
		{"NAXIS2", strconv.Itoa(e.Flux.H)},
		{"NAXIS3", "3"},
		{"VISIT", strconv.Itoa(e.Visit)},
		{"SENSOR", strconv.Itoa(e.Sensor)},
		{"CRVAL1", strconv.Itoa(e.X0)},
		{"CRVAL2", strconv.Itoa(e.Y0)},
	}
	// The size is known up front: the header cards with END, and the
	// three float32 planes, each part padded with spaces to a whole block.
	hdrLen := padded((len(cards) + 1) * cardSize)
	out := make([]byte, hdrLen+padded((len(e.Flux.Pix)+len(e.Var.Pix)+len(e.Mask))*4))
	for i := range out[:hdrLen] {
		out[i] = ' '
	}
	for i, c := range cards {
		putCard(out[i*cardSize:], c[0], c[1])
	}
	copy(out[len(cards)*cardSize:], "END")
	off := hdrLen
	for _, plane := range [][]float64{e.Flux.Pix, e.Var.Pix} {
		for _, p := range plane {
			binary.BigEndian.PutUint32(out[off:], math.Float32bits(float32(p)))
			off += 4
		}
	}
	for _, m := range e.Mask {
		binary.BigEndian.PutUint32(out[off:], math.Float32bits(float32(m)))
		off += 4
	}
	for i := range out[off:] {
		out[off+i] = ' '
	}
	return out
}

// padded rounds n up to a whole number of FITS blocks.
func padded(n int) int {
	return (n + blockSize - 1) / blockSize * blockSize
}

func pad(buf *bytes.Buffer) {
	if r := buf.Len() % blockSize; r != 0 {
		buf.Write(bytes.Repeat([]byte{' '}, blockSize-r))
	}
}

// header is the part of a FITS file that precedes the pixels: the keyword
// cards, the image geometry they declare, and where the data begins.
type header struct {
	kw            map[string]string
	w, h, nplanes int
	off           int
}

// parseHeader reads the header blocks of a single-HDU FITS image and checks
// that data holds every pixel the header declares.
func parseHeader(data []byte) (header, error) {
	var hd header
	if len(data) < blockSize {
		return hd, fmt.Errorf("fits: file too short (%d bytes)", len(data))
	}
	kw := make(map[string]string, 16)
	off := 0
	done := false
	for !done {
		if off+blockSize > len(data) {
			return hd, fmt.Errorf("fits: header runs past end of file")
		}
		for c := 0; c < blockSize/cardSize; c++ {
			cardBytes := data[off+c*cardSize : off+(c+1)*cardSize]
			key := bytes.TrimSpace(cardBytes[:8])
			if string(key) == "END" {
				done = true
				break
			}
			eq := bytes.IndexByte(cardBytes, '=')
			if len(key) == 0 || eq < 0 {
				continue
			}
			kw[string(key)] = string(bytes.TrimSpace(cardBytes[eq+1:]))
		}
		off += blockSize
	}
	if kw["SIMPLE"] != "T" {
		return hd, fmt.Errorf("fits: missing SIMPLE=T")
	}
	if kw["BITPIX"] != "-32" {
		return hd, fmt.Errorf("fits: unsupported BITPIX %q", kw["BITPIX"])
	}
	w, err := atoi(kw, "NAXIS1")
	if err != nil {
		return hd, err
	}
	h, err := atoi(kw, "NAXIS2")
	if err != nil {
		return hd, err
	}
	nplanes := 1
	if kw["NAXIS"] == "3" {
		if nplanes, err = atoi(kw, "NAXIS3"); err != nil {
			return hd, err
		}
	}
	// The dimensions come from the file: w*h*nplanes*4 can wrap, so the
	// pixels the file has room for are divided down instead.
	if room := (len(data) - off) / 4; room/w/h/nplanes == 0 {
		return hd, fmt.Errorf("fits: truncated data: have %d bytes after the header, need %d×%d×%d×4", len(data)-off, w, h, nplanes)
	}
	return header{kw: kw, w: w, h: h, nplanes: nplanes, off: off}, nil
}

// readPlane decodes len(pix) big-endian float32 pixels from data.
func readPlane(pix []float64, data []byte) {
	for i := range pix {
		pix[i] = float64(math.Float32frombits(binary.BigEndian.Uint32(data[4*i:])))
	}
}

// Decode parses a single-HDU FITS image file.
func Decode(data []byte) (*File, error) {
	hd, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	f := &File{Keywords: hd.kw, Planes: make([]*imaging.Image, hd.nplanes)}
	for p := range f.Planes {
		f.Planes[p] = imaging.NewImage(hd.w, hd.h)
		readPlane(f.Planes[p].Pix, data[hd.off+p*hd.w*hd.h*4:])
	}
	return f, nil
}

func atoi(kw map[string]string, key string) (int, error) {
	v, ok := kw[key]
	if !ok {
		return 0, fmt.Errorf("fits: missing %s", key)
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("fits: bad %s=%q", key, v)
	}
	return n, nil
}

// DecodeExposure parses a FITS file written by EncodeExposure back into an
// exposure. The mask plane is narrowed to bits as it is read, never held
// as a float64 image.
func DecodeExposure(data []byte) (*skymap.Exposure, error) {
	hd, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	if hd.nplanes != 3 {
		return nil, fmt.Errorf("fits: expected 3 planes, got %d", hd.nplanes)
	}
	visit, _ := strconv.Atoi(hd.kw["VISIT"])
	sensor, _ := strconv.Atoi(hd.kw["SENSOR"])
	x0, _ := strconv.Atoi(hd.kw["CRVAL1"])
	y0, _ := strconv.Atoi(hd.kw["CRVAL2"])
	e := skymap.NewExposure(visit, sensor, x0, y0, hd.w, hd.h)
	plane := hd.w * hd.h * 4
	readPlane(e.Flux.Pix, data[hd.off:])
	readPlane(e.Var.Pix, data[hd.off+plane:])
	for i := range e.Mask {
		m := math.Float32frombits(binary.BigEndian.Uint32(data[hd.off+2*plane+4*i:]))
		e.Mask[i] = uint8(float64(m)) // widened first, as when the mask was read as a plane
	}
	return e, nil
}
