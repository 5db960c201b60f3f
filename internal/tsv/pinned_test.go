package tsv

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"imagebench/internal/volume"
)

// The codec's observable behaviour, pinned input by input: which bytes
// decode to which volume, which are refused with which message, and
// which bytes a volume encodes to. The cases come from the
// bufio.Scanner + strings.Split implementation this package started
// with; any faster spelling has to reproduce all of them.

func vol(nx, ny, nz int, data ...float64) *volume.V3 {
	return &volume.V3{NX: nx, NY: ny, NZ: nz, Data: data}
}

func sameVolume(a, b *volume.V3) bool {
	if !a.SameShape(b) || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

func TestDecodeAccepts(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name string
		csv  bool
		in   string
		want *volume.V3
	}{
		{"one cell", false, "0\t0\t0\t7\n", vol(1, 1, 1, 7)},
		{"no final newline", false, "0\t0\t0\t1\n1\t0\t0\t2", vol(2, 1, 1, 1, 2)},
		{"CRLF line ends", false, "0\t0\t0\t1\r\n0\t1\t0\t2\r\n", vol(1, 2, 1, 1, 2)},
		{"blank and space-only lines", false, "\n  \n0\t0\t0\t1\n\r\n \t \n0\t0\t1\t2\n\n", vol(1, 1, 2, 1, 2)},
		{"spaces round the line and the fields", false, "  0 \t 0\t0 \t 3.5  \n", vol(1, 1, 1, 3.5)},
		{"leading and trailing separators are trimmed as space", false, "\t0\t0\t0\t4\t\n", vol(1, 1, 1, 4)},
		{"no-break space round a field", false, "\u00a00\t\u00a00\u00a0\t0\t5\u00a0\n", vol(1, 1, 1, 5)},
		{"signed coordinates", false, "+1\t-0\t+0\t1\n0\t0\t0\t2\n", vol(2, 1, 1, 2, 1)},
		{"float spellings", false,
			"0\t0\t0\t1e3\n1\t0\t0\t0x1p-2\n2\t0\t0\t-0\n3\t0\t0\tInf\n4\t0\t0\t-inf\n5\t0\t0\tNaN\n6\t0\t0\t.5\n",
			vol(7, 1, 1, 1000, 0.25, negZero, math.Inf(1), math.Inf(-1), math.NaN(), 0.5)},
		{"any order", false, "1\t1\t0\t4\n0\t0\t0\t1\n0\t1\t0\t3\n1\t0\t0\t2\n", vol(2, 2, 1, 1, 2, 3, 4)},
		{"two-digit coordinates", false, func() string {
			var b strings.Builder
			for x := 11; x >= 0; x-- {
				fmt.Fprintf(&b, "%d\t0\t0\t%d\n", x, x*x)
			}
			return b.String()
		}(), vol(12, 1, 1, 0, 1, 4, 9, 16, 25, 36, 49, 64, 81, 100, 121)},
		{"CSV", true, "0,0,0,1\n0,0,1,2.5\r\n", vol(1, 1, 2, 1, 2.5)},
		{"CSV with spaces and tabs round fields", true, " 0 ,\t0\t, 0 , 6 \n", vol(1, 1, 1, 6)},
	}
	for _, c := range cases {
		dec := Decode
		if c.csv {
			dec = DecodeCSV
		}
		got, err := dec([]byte(c.in))
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if !sameVolume(got, c.want) {
			t.Errorf("%s: decoded %dx%dx%d %v, want %dx%dx%d %v", c.name,
				got.NX, got.NY, got.NZ, got.Data, c.want.NX, c.want.NY, c.want.NZ, c.want.Data)
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	long := strings.Repeat(" ", 1<<20)
	cases := []struct {
		name string
		csv  bool
		in   string
		want string
	}{
		{"empty", false, "", "tsv: empty stream"},
		{"only blank lines", false, "\n \r\n\t\n", "tsv: empty stream"},
		{"one field", false, "7\n", "tsv: line 1: 1 fields, want 4"},
		{"three fields", false, "0\t0\t0\t1\n1\t2\t3\n", "tsv: line 2: 3 fields, want 4"},
		{"five fields", false, "0\t0\t0\t1\t2\n", "tsv: line 1: 5 fields, want 4"},
		{"empty value is trimmed away with its separator", false, "0\t0\t0\t\n", "tsv: line 1: 3 fields, want 4"},
		{"CSV fed to the TSV decoder", false, "0,0,0,1\n", "tsv: line 1: 1 fields, want 4"},
		{"TSV fed to the CSV decoder", true, "0\t0\t0\t1\n", "tsv: line 1: 1 fields, want 4"},
		{"blank lines count", false, "\n\n0\t0\t0\t1\n\nx\t0\t0\t1\n", `tsv: line 5: bad x "x"`},
		{"bad x", false, "a\t0\t0\t1\n", `tsv: line 1: bad x "a"`},
		{"bad y keeps its spaces in the message", false, "0\t b \t0\t1\n", `tsv: line 1: bad y " b "`},
		{"bad z", false, "0\t0\t1.0\t1\n", `tsv: line 1: bad z "1.0"`},
		{"empty x", true, " ,0,0,1\n", `tsv: line 1: bad x ""`},
		{"empty y", false, "0\t\t0\t1\n", `tsv: line 1: bad y ""`},
		{"x out of int range", false, "99999999999999999999\t0\t0\t1\n", `tsv: line 1: bad x "99999999999999999999"`},
		{"underscore in a coordinate", false, "1_0\t0\t0\t1\n", `tsv: line 1: bad x "1_0"`},
		{"bad value", false, "0\t0\t0\tx\n", `tsv: line 1: bad value "x"`},
		{"value out of range", false, "0\t0\t0\t1e999\n", `tsv: line 1: bad value "1e999"`},
		{"x is checked before the value", false, "a\tb\tc\td\n", `tsv: line 1: bad x "a"`},
		{"negative x", false, "-1\t0\t0\t1\n", "tsv: line 1: negative coordinate"},
		{"negative z, after a good line", false, "0\t0\t0\t1\n0\t0\t-2\t1\n", "tsv: line 2: negative coordinate"},
		{"bad value wins over negative", false, "-1\t0\t0\tx\n", `tsv: line 1: bad value "x"`},
		{"missing cells", false, "0\t0\t0\t1\n5\t5\t5\t2\n", "tsv: 2 cells for a 6×6×6 grid"},
		{"too many cells", false, "0\t0\t0\t1\n0\t0\t0\t2\n", "tsv: 2 cells for a 1×1×1 grid"},
		{"duplicate", false, "0\t0\t0\t1\n0\t0\t0\t2\n0\t1\t0\t1\n0\t1\t0\t2\n", "tsv: 4 cells for a 1×2×1 grid"},
		{"duplicate in a full-size stream", false, "0\t0\t0\t1\n1\t0\t0\t2\n1\t0\t0\t3\n0\t1\t0\t1\n", "tsv: duplicate cell (1,0,0)"},
		{"line of 1 MiB", false, long + "\n", "tsv: bufio.Scanner: token too long"},
		{"line of 1 MiB after good lines, before a bad one", false, "0\t0\t0\t1\n" + long + "\nx\n", "tsv: bufio.Scanner: token too long"},
		{"bad line before a line of 1 MiB", false, "x\n" + long, "tsv: line 1: 1 fields, want 4"},
	}
	for _, c := range cases {
		dec := Decode
		if c.csv {
			dec = DecodeCSV
		}
		v, err := dec([]byte(c.in))
		switch {
		case err == nil:
			t.Errorf("%s: decoded a %dx%dx%d volume, want error %q", c.name, v.NX, v.NY, v.NZ, c.want)
		case err.Error() != c.want:
			t.Errorf("%s: error %q, want %q", c.name, err, c.want)
		}
	}
	if _, err := Decode([]byte(long)); !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("over-long line: error %v does not wrap bufio.ErrTooLong", err)
	}
	// One byte short of the limit is only an (otherwise blank) line.
	if _, err := Decode([]byte(long[1:] + "\n0\t0\t0\t1\n")); err != nil {
		t.Errorf("line of 1 MiB - 1: %v", err)
	}
}

func TestEncodeBytes(t *testing.T) {
	v := vol(2, 2, 1, 0, math.Copysign(0, -1), 1.5, -2)
	if got, want := string(Encode(v)), "0\t0\t0\t0\n1\t0\t0\t-0\n0\t1\t0\t1.5\n1\t1\t0\t-2\n"; got != want {
		t.Errorf("Encode = %q, want %q", got, want)
	}
	if got, want := string(EncodeCSV(v)), "0,0,0,0\n1,0,0,-0\n0,1,0,1.5\n1,1,0,-2\n"; got != want {
		t.Errorf("EncodeCSV = %q, want %q", got, want)
	}

	// Every float spelling 'g' with shortest precision produces, on a
	// grid with two- and three-digit coordinates, against the format
	// spelled out the slow way.
	vals := []float64{1e21, 1e20, 1e-4, 1e-5, 123456789.125, 1.0 / 3, -1e-7, math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 100, 5e-324, 2.5e100}
	big := volume.New3(101, 11, 2)
	for i := range big.Data {
		big.Data[i] = vals[i%len(vals)] * float64(1+i/len(vals))
	}
	for _, sep := range []string{"\t", ","} {
		var want strings.Builder
		for z := 0; z < big.NZ; z++ {
			for y := 0; y < big.NY; y++ {
				for x := 0; x < big.NX; x++ {
					fmt.Fprintf(&want, "%d%s%d%s%d%s%s\n", x, sep, y, sep, z, sep,
						strconv.FormatFloat(big.At(x, y, z), 'g', -1, 64))
				}
			}
		}
		got := Encode(big)
		if sep == "," {
			got = EncodeCSV(big)
		}
		if string(got) != want.String() {
			t.Errorf("separator %q: encoded bytes differ from the reference spelling", sep)
		}
	}
	if got, want := Expansion(v), float64(len(Encode(v)))/32; got != want {
		t.Errorf("Expansion = %v, want %v", got, want)
	}
}
