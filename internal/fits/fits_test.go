package fits

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"imagebench/internal/skymap"
)

func sample() *skymap.Exposure {
	e := skymap.NewExposure(3, 7, -12, 40, 8, 6)
	for i := range e.Flux.Pix {
		e.Flux.Pix[i] = float64(float32(i) * 1.5)
		e.Var.Pix[i] = float64(float32(i % 5))
	}
	e.Mask[5] = skymap.MaskCosmicRay
	return e
}

func TestExposureRoundTrip(t *testing.T) {
	e := sample()
	data := EncodeExposure(e)
	if len(data)%2880 != 0 {
		t.Errorf("FITS file length %d not a multiple of 2880", len(data))
	}
	got, err := DecodeExposure(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Visit != 3 || got.Sensor != 7 || got.X0 != -12 || got.Y0 != 40 {
		t.Errorf("metadata %+v", got)
	}
	for i := range e.Flux.Pix {
		if got.Flux.Pix[i] != e.Flux.Pix[i] || got.Var.Pix[i] != e.Var.Pix[i] {
			t.Fatalf("pixel %d differs", i)
		}
	}
	if got.Mask[5] != skymap.MaskCosmicRay {
		t.Error("mask plane lost")
	}
}

func TestDecodeValidation(t *testing.T) {
	data := EncodeExposure(sample())
	if _, err := Decode(data[:100]); err == nil {
		t.Error("short file accepted")
	}
	// Corrupt SIMPLE card.
	bad := append([]byte(nil), data...)
	copy(bad[:6], "BROKEN")
	if _, err := Decode(bad); err == nil {
		t.Error("missing SIMPLE accepted")
	}
	// Truncated data block.
	if _, err := Decode(data[:2880+16]); err == nil {
		t.Error("truncated data accepted")
	}
}

func TestHeaderKeywords(t *testing.T) {
	f, err := Decode(EncodeExposure(sample()))
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range [][2]string{
		{"SIMPLE", "T"}, {"BITPIX", "-32"}, {"NAXIS", "3"},
		{"NAXIS1", "8"}, {"NAXIS2", "6"}, {"NAXIS3", "3"},
		{"VISIT", "3"}, {"SENSOR", "7"},
	} {
		if f.Keywords[kv[0]] != kv[1] {
			t.Errorf("%s = %q, want %q", kv[0], f.Keywords[kv[0]], kv[1])
		}
	}
	if len(f.Planes) != 3 {
		t.Errorf("%d planes", len(f.Planes))
	}
}

// setCard overwrites header card idx of an EncodeExposure file.
func setCard(data []byte, idx int, key, value string) {
	c := data[idx*cardSize : (idx+1)*cardSize]
	copy(c, bytes.Repeat([]byte{' '}, cardSize))
	putCard(c, key, value)
}

// overflowingFile is a well-formed file but for its dimensions:
// NAXIS1×NAXIS2×NAXIS3×4 is 2^66, which wraps to 0.
func overflowingFile() []byte {
	data := EncodeExposure(sample())
	setCard(data, 3, "NAXIS1", "4611686018427387904")
	setCard(data, 4, "NAXIS2", "4")
	setCard(data, 5, "NAXIS3", "1")
	return data
}

// TestDecodeRejectsOverflowingDimensions: a size check done by multiplying
// sees a file with room to spare and returns a 2^62×4 plane holding zero
// pixels.
func TestDecodeRejectsOverflowingDimensions(t *testing.T) {
	data := overflowingFile()
	if f, err := Decode(data); err == nil {
		t.Errorf("accepted a %d×%d plane with %d pixels", f.Planes[0].W, f.Planes[0].H, len(f.Planes[0].Pix))
	}
	setCard(data, 5, "NAXIS3", "3")
	if _, err := DecodeExposure(data); err == nil {
		t.Error("DecodeExposure accepted overflowing dimensions")
	}
}

// Property: the image decoder never panics on arbitrary input — it
// returns an error.
func TestFitsDecodeRobustnessProperty(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecode guards the FITS image parser: whatever the bytes, no panic,
// and a file that decodes has every pixel its header declares.
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, dim := range [][2]int{{8, 6}, {1, 1}, {5, 3}} {
		e := skymap.NewExposure(rng.Intn(50), rng.Intn(50), rng.Intn(200)-100, rng.Intn(200)-100, dim[0], dim[1])
		for i := range e.Flux.Pix {
			e.Flux.Pix[i] = 100 + 10*rng.NormFloat64()
			e.Var.Pix[i] = 100
			e.Mask[i] = uint8(rng.Intn(4))
		}
		data := EncodeExposure(e)
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:blockSize])
		f.Add(data[:blockSize+16])
	}
	f.Add(overflowingFile())
	f.Fuzz(func(t *testing.T, data []byte) {
		if file, err := Decode(data); err == nil {
			if len(file.Planes) == 0 {
				t.Fatal("decoded a file with no planes")
			}
			for i, p := range file.Planes {
				if p.W <= 0 || p.H <= 0 || len(p.Pix) != p.W*p.H || p.W*p.H/p.H != p.W {
					t.Fatalf("plane %d: %d×%d with %d pixels", i, p.W, p.H, len(p.Pix))
				}
			}
		}
		if e, err := DecodeExposure(data); err == nil {
			n := e.Flux.W * e.Flux.H
			if len(e.Flux.Pix) != n || len(e.Var.Pix) != n || len(e.Mask) != n {
				t.Fatalf("exposure %d×%d with %d/%d/%d pixels", e.Flux.W, e.Flux.H, len(e.Flux.Pix), len(e.Var.Pix), len(e.Mask))
			}
		}
	})
}

// TestExposureCodecAllocs pins what the allocation diet reached for a
// 32×32 exposure (88 before it): encoding builds the file in one buffer of
// known size, decoding reads the mask plane straight into bits, and what
// remains is the exposure itself and the header's keyword strings.
func TestExposureCodecAllocs(t *testing.T) {
	e := skymap.NewExposure(3, 7, -120, 400, 32, 32)
	got := testing.AllocsPerRun(20, func() {
		if _, err := DecodeExposure(EncodeExposure(e)); err != nil {
			t.Fatal(err)
		}
	})
	if got > 28 {
		t.Errorf("%v allocations per encode+decode, want at most 28", got)
	}
}
