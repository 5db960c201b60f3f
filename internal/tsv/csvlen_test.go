package tsv

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"imagebench/internal/volume"
)

// RoundTrip returns exactly what the TSV codecs produce, with the length
// they wrote, and fails on every call for a volume they cannot carry.
// CSVLen is the length EncodeCSV writes, so the expansion SciDB's ingest
// derives from it is the same number bit for bit, and a CSV parse gives
// back every bit of the volume: the ingest's chunks keep their decoded
// values.
func TestRoundTripMatchesCodecs(t *testing.T) {
	v := randomVol(rand.New(rand.NewSource(3)), 5, 4, 3)
	v.Data[1], v.Data[2] = math.Copysign(0, -1), math.Inf(1)
	wantTSV, wantCSV := Encode(v), EncodeCSV(v)
	got, n, err := RoundTrip(v)
	if err != nil || n != len(wantTSV) || !sameVolume(got, v) {
		t.Fatalf("TSV: err %v, %d bytes (codec wrote %d), same bits %v", err, n, len(wantTSV), err == nil && sameVolume(got, v))
	}
	if n := CSVLen(v); n != len(wantCSV) {
		t.Fatalf("CSVLen %d, EncodeCSV wrote %d", n, len(wantCSV))
	}
	if parsed, err := DecodeCSV(wantCSV); err != nil || !sameVolume(parsed, v) {
		t.Fatalf("CSV parse: err %v, same bits %v", err, err == nil && sameVolume(parsed, v))
	}
	for round := 0; round < 2; round++ {
		if _, _, err := RoundTrip(&volume.V3{}); err == nil {
			t.Fatal("an empty volume round-tripped as TSV")
		}
	}
}

// CSVLen counts every spelling the codec writes: 0 and -0, NaN, both
// infinities, the largest and smallest magnitudes and the longest
// spelling, and coordinates past one digit.
func TestCSVLenOnEverySpelling(t *testing.T) {
	v := volume.New3(11, 3, 2)
	for i, x := range []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000002),
		math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64,
		-2.2250738585072014e-308, 1e21, 1e-7, 123456789, 0.1,
	} {
		v.Data[i*5%len(v.Data)] = x
	}
	if got, want := CSVLen(v), len(EncodeCSV(v)); got != want {
		t.Fatalf("CSVLen %d, EncodeCSV wrote %d", got, want)
	}
	if n := testing.AllocsPerRun(10, func() { CSVLen(v) }); n != 0 {
		t.Errorf("CSVLen allocates %v times a call, want 0", n)
	}
}

// The same over arbitrary float64 bits (NaN payloads, -0, ±Inf,
// subnormals) and shapes.
func FuzzCSVLen(f *testing.F) {
	f.Add(make([]byte, 8), uint8(1), uint8(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0xff}, uint8(2), uint8(2))
	f.Add(make([]byte, 8*24), uint8(12), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, nx, ny uint8) {
		n := len(raw) / 8
		if n == 0 || nx == 0 || ny == 0 || n%(int(nx)*int(ny)) != 0 {
			return
		}
		v := volume.New3(int(nx), int(ny), n/(int(nx)*int(ny)))
		for i := range v.Data {
			v.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		if got, want := CSVLen(v), len(EncodeCSV(v)); got != want {
			t.Fatalf("%d×%d×%d: CSVLen %d, EncodeCSV wrote %d", v.NX, v.NY, v.NZ, got, want)
		}
	})
}
