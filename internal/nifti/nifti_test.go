package nifti

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"imagebench/internal/volume"
)

func TestRoundTrip4D(t *testing.T) {
	vols := make([]*volume.V3, 3)
	for i := range vols {
		vols[i] = volume.New3(4, 5, 6)
		for j := range vols[i].Data {
			// Values exactly representable in float32.
			vols[i].Data[j] = float64(float32(i*1000 + j))
		}
	}
	v4 := volume.New4(vols)
	data := Encode4(v4)
	got, err := Decode4(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.T() != 3 {
		t.Fatalf("T=%d", got.T())
	}
	for i := range vols {
		if volume.MaxAbsDiff(got.Vols[i], vols[i]) != 0 {
			t.Errorf("volume %d differs", i)
		}
	}
}

// encode3 spells v as a 3-D NIfTI-1 file: Encode4's file of one volume
// with the rank set to 3.
func encode3(v *volume.V3) []byte {
	data := Encode4(volume.New4([]*volume.V3{v}))
	binary.LittleEndian.PutUint16(data[40:], 3)
	return data
}

// decode3 reads a 3-D file through Decode4, which serves it as a series
// of one volume.
func decode3(data []byte) (*volume.V3, error) {
	v4, err := Decode4(data)
	if err != nil {
		return nil, err
	}
	if v4.T() != 1 {
		return nil, fmt.Errorf("3-D file decoded to %d volumes", v4.T())
	}
	return v4.Vols[0], nil
}

func TestRoundTrip3D(t *testing.T) {
	v := volume.New3(3, 3, 3)
	v.Data[13] = 42
	got, err := decode3(encode3(v))
	if err != nil {
		t.Fatal(err)
	}
	if volume.MaxAbsDiff(got, v) != 0 {
		t.Error("3-D round trip differs")
	}
}

func TestHeaderValidation(t *testing.T) {
	v := volume.New3(2, 2, 2)
	data := encode3(v)
	// Corrupt the magic.
	bad := append([]byte(nil), data...)
	copy(bad[magicOff:], "nope")
	if _, err := decode3(bad); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated voxel data.
	if _, err := decode3(data[:len(data)-4]); err == nil {
		t.Error("truncated data accepted")
	}
	// Too short for a header at all.
	if _, err := DecodeHeader(data[:100]); err == nil {
		t.Error("short header accepted")
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: encode→decode is identity for float32-representable data.
	f := func(vals [24]float32) bool {
		v := volume.New3(2, 3, 4)
		for i := range v.Data {
			v.Data[i] = float64(vals[i])
		}
		got, err := decode3(encode3(v))
		if err != nil {
			return false
		}
		return volume.MaxAbsDiff(got, v) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func randomSeries(rng *rand.Rand, nx, ny, nz, nt int, scale float64) *volume.V4 {
	vols := make([]*volume.V3, nt)
	for t := range vols {
		v := volume.New3(nx, ny, nz)
		for i := range v.Data {
			v.Data[i] = scale * rng.Float64()
		}
		vols[t] = v
	}
	return volume.New4(vols)
}

// withDatatype returns a copy of an Encode4 file with its datatype field
// (offset 70) set to dt.
func withDatatype(data []byte, dt int16) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(out[70:], uint16(dt))
	return out
}

// TestDecodeReadsFloat32Only: the reader takes the one datatype Encode4
// writes and rejects every other code, the integer and float64 ones
// included, before it reads a voxel.
func TestDecodeReadsFloat32Only(t *testing.T) {
	v := randomSeries(rand.New(rand.NewSource(5)), 3, 2, 2, 2, 100)
	data := Encode4(v)
	for _, tc := range []struct {
		dt int16
		ok bool
	}{{0, false}, {2, false}, {4, false}, {16, true}, {64, false}, {99, false}} {
		got, err := Decode4(withDatatype(data, tc.dt))
		if !tc.ok {
			if err == nil || !strings.Contains(err.Error(), "unsupported datatype") {
				t.Errorf("datatype %d: err = %v, want unsupported datatype", tc.dt, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("datatype %d: %v", tc.dt, err)
		}
		for ti, vol := range got.Vols {
			for i, x := range vol.Data {
				if want := float64(float32(v.Vols[ti].Data[i])); x != want {
					t.Fatalf("datatype %d: vol %d voxel %d: %v != %v", tc.dt, ti, i, x, want)
				}
			}
		}
	}
}

// Property: the decoders never panic on arbitrary input — they return
// errors.
func TestDecodeRobustnessProperty(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = DecodeHeader(data)
		_, _ = Decode4(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoders reject arbitrary mutations of a valid file's header
// bytes or decode them to a structurally valid result — never panic.
func TestDecodeMutatedHeaderProperty(t *testing.T) {
	base := Encode4(randomSeries(rand.New(rand.NewSource(9)), 3, 3, 3, 2, 1))
	f := func(off uint16, val byte) bool {
		data := append([]byte(nil), base...)
		data[int(off)%352] = val
		v, err := Decode4(data)
		if err != nil {
			return true
		}
		return v != nil && v.T() >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzNIfTIDecode4 guards the NIfTI reader on the Load path: whatever
// the bytes, no panic, and a file that decodes re-encodes through
// Encode4 to one that decodes to the same voxels as Encode4 stores them
// (float32, so a voxel the header's scl_slope/scl_inter scale is
// compared rounded) and to the same shape.
func FuzzNIfTIDecode4(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	series := Encode4(randomSeries(rng, 3, 2, 2, 2, 100))
	f.Add(series)
	f.Add(series[:len(series)-4])
	f.Add(encode3(randomSeries(rng, 2, 2, 1, 1, 1).Vols[0]))
	for _, dt := range []int16{0, 2, 4, 64, 99} {
		f.Add(withDatatype(series, dt))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode4(data)
		if err != nil {
			return
		}
		again, err := Decode4(Encode4(got))
		if err != nil {
			t.Fatalf("a decoded series does not decode after Encode4: %v", err)
		}
		nx, ny, nz := got.Shape()
		if ax, ay, az := again.Shape(); again.T() != got.T() || ax != nx || ay != ny || az != nz {
			t.Fatalf("shape %d×%d×%d×%d came back %d×%d×%d×%d", nx, ny, nz, got.T(), ax, ay, az, again.T())
		}
		for v := range got.Vols {
			for i, x := range got.Vols[v].Data {
				want, y := float32(x), float32(again.Vols[v].Data[i])
				if y != want && !(math.IsNaN(float64(y)) && math.IsNaN(float64(want))) {
					t.Fatalf("volume %d voxel %d: %v came back %v", v, i, x, y)
				}
			}
		}
	})
}
