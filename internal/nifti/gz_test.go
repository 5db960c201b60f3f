package nifti

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"imagebench/internal/volume"
)

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

func TestGzRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := randomSeries(rng, 5, 4, 3, 6, 1000)
	gz := Encode4Gz(v)
	if !IsGz(gz) {
		t.Fatal("Encode4Gz output lacks gzip magic")
	}
	plain := Encode4(v)
	if len(gz) >= len(plain) {
		t.Logf("note: gzip did not shrink random data (%d vs %d)", len(gz), len(plain))
	}
	got, err := DecodeAuto(gz)
	if err != nil {
		t.Fatal(err)
	}
	if got.T() != 6 {
		t.Fatalf("got %d volumes, want 6", got.T())
	}
	for ti, vol := range got.Vols {
		for i := range vol.Data {
			want := float64(float32(v.Vols[ti].Data[i])) // float32 storage
			if vol.Data[i] != want {
				t.Fatalf("vol %d voxel %d: %v != %v", ti, i, vol.Data[i], want)
			}
		}
	}
}

func TestDecodeAutoPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v := randomSeries(rng, 3, 3, 3, 2, 1)
	got, err := DecodeAuto(Encode4(v))
	if err != nil {
		t.Fatal(err)
	}
	if got.T() != 2 {
		t.Fatalf("got %d volumes, want 2", got.T())
	}
}

func TestGunzipErrors(t *testing.T) {
	if _, err := Gunzip([]byte{0x1f, 0x8b, 0xff}); err == nil {
		t.Error("truncated gzip should error")
	}
	if _, err := Gunzip([]byte("not gzip at all")); err == nil {
		t.Error("non-gzip input should error")
	}
	if _, err := DecodeAuto(append([]byte{0x1f, 0x8b}, make([]byte, 10)...)); err == nil {
		t.Error("bad gz container should error")
	}
}

func TestEncodeAsInt16Quantization(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := randomSeries(rng, 6, 5, 4, 3, 2000)
	data, err := Encode4As(v, DTInt16)
	if err != nil {
		t.Fatal(err)
	}
	h, err := DecodeHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	if h.Datatype != DTInt16 || h.SclSlope == 0 {
		t.Fatalf("header: datatype=%d slope=%v", h.Datatype, h.SclSlope)
	}
	got, err := Decode4(data)
	if err != nil {
		t.Fatal(err)
	}
	// Quantization error is bounded by one step (slope).
	step := float64(h.SclSlope)
	for ti, vol := range got.Vols {
		for i := range vol.Data {
			if d := math.Abs(vol.Data[i] - v.Vols[ti].Data[i]); d > step {
				t.Fatalf("vol %d voxel %d: error %v exceeds one quantization step %v", ti, i, d, step)
			}
		}
	}
	// int16 storage is half the size of float32.
	f32, _ := Encode4As(v, DTFloat32)
	if len(data) >= len(f32) {
		t.Errorf("int16 file (%d) not smaller than float32 (%d)", len(data), len(f32))
	}
}

func TestEncodeAsUInt8MaskRoundTrip(t *testing.T) {
	// Binary masks survive uint8 quantization exactly.
	v3 := volume.New3(4, 4, 4)
	for i := range v3.Data {
		if i%3 == 0 {
			v3.Data[i] = 1
		}
	}
	data, err := Encode4As(volume.New4([]*volume.V3{v3}), DTUInt8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode4(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range got.Vols[0].Data {
		// Exactness up to float32 header precision: thresholding at 0.5
		// recovers the binary mask, and the error is ≪ one mask level.
		if math.Abs(x-v3.Data[i]) > 1e-6 {
			t.Fatalf("mask voxel %d: %v != %v", i, x, v3.Data[i])
		}
	}
}

func TestEncodeAsConstantData(t *testing.T) {
	v3 := volume.New3(2, 2, 2)
	for i := range v3.Data {
		v3.Data[i] = 7
	}
	data, err := Encode4As(volume.New4([]*volume.V3{v3}), DTInt16)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode4(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range got.Vols[0].Data {
		if x != 7 {
			t.Fatalf("voxel %d: %v != 7", i, x)
		}
	}
}

func TestEncodeAsBadDatatype(t *testing.T) {
	if _, err := Encode4As(volume.New4([]*volume.V3{volume.New3(1, 1, 1)}), 99); err == nil {
		t.Error("unsupported datatype should error")
	}
}

func TestHeaderPixDimAndQOffset(t *testing.T) {
	v := randomSeries(rand.New(rand.NewSource(4)), 2, 2, 2, 1, 1)
	data, err := Encode4As(v, DTFloat32)
	if err != nil {
		t.Fatal(err)
	}
	h, err := DecodeHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	dx, dy, dz := h.VoxelSize()
	if dx != 1.25 || dy != 1.25 || dz != 1.25 {
		t.Errorf("voxel size = %v,%v,%v, want 1.25 (HCP spacing)", dx, dy, dz)
	}
	// Zero pixdims fall back to 1.
	var zero Header
	if dx, _, _ := zero.VoxelSize(); dx != 1 {
		t.Errorf("zero pixdim voxel size = %v, want 1", dx)
	}
}

// Property: gzip round trip is the identity on arbitrary payloads.
func TestGzRoundTripProperty(t *testing.T) {
	f := func(payload []byte) bool {
		out, err := Gunzip(EncodeGz(payload))
		if err != nil {
			return false
		}
		if len(out) != len(payload) {
			return false
		}
		for i := range out {
			if out[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: int16 quantization error never exceeds one step, for any
// data scale.
func TestQuantizationErrorBoundProperty(t *testing.T) {
	f := func(seed int64, scaleBits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		scale := math.Ldexp(1, int(scaleBits%40)) // scales 1 .. 2^39
		v := randomSeries(rng, 3, 3, 2, 2, scale)
		data, err := Encode4As(v, DTInt16)
		if err != nil {
			return false
		}
		h, err := DecodeHeader(data)
		if err != nil {
			return false
		}
		got, err := Decode4(data)
		if err != nil {
			return false
		}
		step := math.Max(float64(h.SclSlope), 1e-12)
		for ti, vol := range got.Vols {
			for i := range vol.Data {
				if math.Abs(vol.Data[i]-v.Vols[ti].Data[i]) > step*1.0001 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the decoders never panic on arbitrary input — they return
// errors.
func TestDecodeRobustnessProperty(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = DecodeHeader(data)
		_, _ = Decode4(data)
		_, _ = DecodeAuto(data)
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
// (float32, so a float64 or scaled voxel is compared rounded) and to the
// same shape.
func FuzzNIfTIDecode4(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	series := Encode4(randomSeries(rng, 3, 2, 2, 2, 100))
	f.Add(series)
	f.Add(series[:len(series)-4])
	f.Add(Encode3(randomSeries(rng, 2, 2, 1, 1, 1).Vols[0]))
	for _, dt := range []int16{DTUInt8, DTInt16, DTFloat64} {
		if data, err := Encode4As(randomSeries(rng, 2, 3, 1, 2, 50), dt); err == nil {
			f.Add(data)
		}
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
