package npy

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"imagebench/internal/volume"
)

func TestRoundTrip(t *testing.T) {
	v := volume.New3(3, 4, 5)
	for i := range v.Data {
		v.Data[i] = float64(i) * 0.25
	}
	got, err := Decode(Encode(v))
	if err != nil {
		t.Fatal(err)
	}
	if got.NX != 3 || got.NY != 4 || got.NZ != 5 {
		t.Fatalf("shape %dx%dx%d", got.NX, got.NY, got.NZ)
	}
	if volume.MaxAbsDiff(got, v) != 0 {
		t.Error("round trip differs")
	}
}

func TestHeaderAlignment(t *testing.T) {
	data := Encode(volume.New3(1, 1, 1))
	// Data section must start 64-byte aligned per the .npy spec.
	hlen := int(data[8]) | int(data[9])<<8
	if (10+hlen)%64 != 0 {
		t.Errorf("data offset %d not 64-aligned", 10+hlen)
	}
}

func TestDecodeValidation(t *testing.T) {
	data := Encode(volume.New3(2, 2, 2))
	if _, err := Decode(data[:4]); err == nil {
		t.Error("short file accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := Decode(bad); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Decode(data[:len(data)-8]); err == nil {
		t.Error("truncated data accepted")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(vals [12]float64, dims uint8) bool {
		nx := int(dims%3) + 1
		v := volume.New3(nx, 2, 2)
		for i := range v.Data {
			v.Data[i] = vals[i%12]
		}
		got, err := Decode(Encode(v))
		return err == nil && volume.MaxAbsDiff(got, v) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// FuzzNPYDecode guards the .npy reader on the Load path: whatever the
// bytes, no panic and no allocation past what the data can fill, and a
// file that decodes re-encodes through Encode to one that decodes to the
// same voxels, bit for bit.
func FuzzNPYDecode(f *testing.F) {
	v := volume.New3(3, 2, 2)
	for i := range v.Data {
		v.Data[i] = float64(i) - 5.5
	}
	data := Encode(v)
	f.Add(data)
	f.Add(data[:len(data)-8])
	f.Add(Encode(volume.New3(1, 1, 1)))
	f.Add(bytes.Replace(data, []byte("(2, 2, 3)"), []byte("(100000, 100000, 100000)"), 1))
	f.Add(bytes.Replace(data, []byte("(2, 2, 3)"), []byte("(4294967296, 4294967296, 1)"), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(data)
		if err != nil {
			return
		}
		again, err := Decode(Encode(got))
		if err != nil {
			t.Fatalf("a decoded %d×%d×%d volume does not decode after Encode: %v", got.NX, got.NY, got.NZ, err)
		}
		if again.NX != got.NX || again.NY != got.NY || again.NZ != got.NZ {
			t.Fatalf("shape %d×%d×%d came back %d×%d×%d", got.NX, got.NY, got.NZ, again.NX, again.NY, again.NZ)
		}
		for i := range got.Data {
			if math.Float64bits(again.Data[i]) != math.Float64bits(got.Data[i]) {
				t.Fatalf("voxel %d: %v came back %v", i, got.Data[i], again.Data[i])
			}
		}
	})
}
