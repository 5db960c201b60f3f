package tsv

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"imagebench/internal/volume"
)

func randomVol(rng *rand.Rand, nx, ny, nz int) *volume.V3 {
	v := volume.New3(nx, ny, nz)
	for i := range v.Data {
		v.Data[i] = rng.NormFloat64() * 100
	}
	return v
}

func TestRoundTripTSV(t *testing.T) {
	v := randomVol(rand.New(rand.NewSource(1)), 5, 4, 3)
	got, err := Decode(Encode(v))
	if err != nil {
		t.Fatal(err)
	}
	if d := volume.MaxAbsDiff(got, v); d != 0 {
		t.Fatalf("TSV round trip differs by %g", d)
	}
}

func TestRoundTripCSV(t *testing.T) {
	v := randomVol(rand.New(rand.NewSource(2)), 3, 6, 2)
	got, err := DecodeCSV(EncodeCSV(v))
	if err != nil {
		t.Fatal(err)
	}
	if d := volume.MaxAbsDiff(got, v); d != 0 {
		t.Fatalf("CSV round trip differs by %g", d)
	}
}

func TestDecodeAnyOrder(t *testing.T) {
	// Cells may arrive in any order (SciDB chunk iteration order is the
	// engine's business, not the consumer's).
	lines := []string{
		"1\t0\t0\t2.5",
		"0\t0\t0\t1.5",
		"1\t1\t0\t4.5",
		"0\t1\t0\t3.5",
	}
	v, err := Decode([]byte(strings.Join(lines, "\n") + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v.NX != 2 || v.NY != 2 || v.NZ != 1 {
		t.Fatalf("shape %d×%d×%d", v.NX, v.NY, v.NZ)
	}
	if v.At(0, 0, 0) != 1.5 || v.At(1, 1, 0) != 4.5 {
		t.Fatalf("values: %v", v.Data)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"short line":     "1\t2\t3\n",
		"bad x":          "a\t0\t0\t1\n",
		"bad value":      "0\t0\t0\tx\n",
		"negative coord": "-1\t0\t0\t1\n",
		"duplicate":      "0\t0\t0\t1\n0\t0\t0\t2\n0\t1\t0\t1\n0\t1\t0\t2\n",
		"missing cell":   "0\t0\t0\t1\n5\t5\t5\t2\n",
		// 7 × 7905747460161236407 × 1 wraps round to 1, the cell count.
		"extent overflow": "6\t7905747460161236406\t0\t1.5\n",
		// MaxInt+1 wraps too: to a zero extent alone, and beside a real cell
		// to a linear index outside the grid.
		"coordinate MaxInt":          "9223372036854775807\t0\t0\t1\n",
		"coordinate MaxInt, 2 cells": "0\t0\t0\t1\n9223372036854775807\t1\t0\t2\n",
	}
	for name, src := range cases {
		if _, err := Decode([]byte(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestDecodeSkipsBlankLines(t *testing.T) {
	v, err := Decode([]byte("\n0\t0\t0\t7\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v.At(0, 0, 0) != 7 {
		t.Fatalf("value %v", v.At(0, 0, 0))
	}
}

func TestExpansionRatio(t *testing.T) {
	// The cost model charges TSV at ~2.5× the binary size; the real codec
	// should land in that regime for realistic signal magnitudes.
	v := randomVol(rand.New(rand.NewSource(3)), 8, 8, 8)
	e := float64(len(Encode(v))) / float64(8*v.Len())
	if e < 1.5 || e > 4.5 {
		t.Errorf("TSV expansion %.2f outside the plausible [1.5, 4.5] band", e)
	}
}

// Property: TSV and CSV round trips are exact for arbitrary finite
// values on arbitrary small grids.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, dims [3]uint8) bool {
		nx, ny, nz := int(dims[0]%4)+1, int(dims[1]%4)+1, int(dims[2]%4)+1
		rng := rand.New(rand.NewSource(seed))
		v := volume.New3(nx, ny, nz)
		for i := range v.Data {
			v.Data[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(60)-30)
		}
		t1, err := Decode(Encode(v))
		if err != nil || volume.MaxAbsDiff(t1, v) != 0 {
			return false
		}
		c1, err := DecodeCSV(EncodeCSV(v))
		return err == nil && volume.MaxAbsDiff(c1, v) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the decoder never panics on arbitrary bytes.
func TestDecodeRobustnessProperty(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Decode(data)
		_, _ = DecodeCSV(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzTSVDecode hands both decoders arbitrary bytes: no panic, no
// volume with more cells than the input has lines to fill (a cell's
// line is at least "0\t0\t0\t0"), and an accepted volume encodes and
// decodes back to the same shape and bits.
func FuzzTSVDecode(f *testing.F) {
	v := randomVol(rand.New(rand.NewSource(4)), 3, 2, 2)
	f.Add(Encode(v))
	f.Add(EncodeCSV(v))
	f.Add([]byte("1\t0\t0\t2.5\n0\t0\t0\t-0\n\n1\t1\t0\tNaN\n0\t1\t0\t+Inf"))
	f.Add([]byte("6\t7905747460161236406\t0\t1.5\n"))
	f.Add([]byte("0,0,0,1\n9223372036854775807,1,0,2\n"))
	codecs := []struct {
		name   string
		decode func([]byte) (*volume.V3, error)
		encode func(*volume.V3) []byte
	}{{"TSV", Decode, Encode}, {"CSV", DecodeCSV, EncodeCSV}}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			got, err := c.decode(data)
			if err != nil {
				continue
			}
			if got.Len() > (len(data)+1)/8 {
				t.Fatalf("%s: %d input bytes decoded to %d cells", c.name, len(data), got.Len())
			}
			again, err := c.decode(c.encode(got))
			if err != nil {
				t.Fatalf("%s: a decoded %d×%d×%d volume does not decode after encoding: %v", c.name, got.NX, got.NY, got.NZ, err)
			}
			if !again.SameShape(got) {
				t.Fatalf("%s: shape %d×%d×%d came back %d×%d×%d", c.name, got.NX, got.NY, got.NZ, again.NX, again.NY, again.NZ)
			}
			for i := range got.Data {
				if math.Float64bits(again.Data[i]) != math.Float64bits(got.Data[i]) {
					t.Fatalf("%s: cell %d: %v came back %v", c.name, i, got.Data[i], again.Data[i])
				}
			}
		}
	})
}
