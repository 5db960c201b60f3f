package synth

import (
	"fmt"
	"testing"
)

// recordKeys is every key pattern the pipelines spell with FormatKey,
// each with fmt's spelling of it.
var recordKeys = []struct{ pattern, format string }{
	{"s###", "s%03d"},
	{"s###/t###", "s%03d/t%03d"},
	{"s###/b##", "s%03d/b%02d"},
	{"s###/b##/t###", "s%03d/b%02d/t%03d"},
	{"neuro/npy/subj-###/vol-###.npy", "neuro/npy/subj-%03d/vol-%03d.npy"},
	{"neuro/nii/subj-###.nii", "neuro/nii/subj-%03d.nii"},
	{"p#_#", "p%d_%d"},
	{"p#_#/v##", "p%d_%d/v%02d"},
}

// widths lists the width of each of pattern's fields.
func widths(pattern string) []int {
	var ws []int
	for i := range pattern {
		switch {
		case pattern[i] != '#':
		case i > 0 && pattern[i-1] == '#':
			ws[len(ws)-1]++
		default:
			ws = append(ws, 1)
		}
	}
	return ws
}

// Every pattern spells each ID from 0 to 1,200 in every field as fmt
// does, and reads it back; a lone '#' does so for negative IDs too.
func TestRecordKeysRoundTrip(t *testing.T) {
	for _, rk := range recordKeys {
		ws := widths(rk.pattern)
		for f, w := range ws {
			lo := 0
			if w == 1 {
				lo = -1200
			}
			for id := lo; id <= 1200; id++ {
				ids, args, ptrs := make([]int, len(ws)), make([]any, len(ws)), make([]*int, len(ws))
				for i := range ids {
					ids[i] = 7 * (i + 1)
				}
				ids[f] = id
				for i := range ids {
					args[i], ptrs[i] = ids[i], new(int)
				}
				key := FormatKey(rk.pattern, ids...)
				if want := fmt.Sprintf(rk.format, args...); key != want {
					t.Fatalf("FormatKey(%q, %v) = %q, fmt spells %q", rk.pattern, ids, key, want)
				}
				if !ScanKey(key, rk.pattern, ptrs...) {
					t.Fatalf("ScanKey(%q, %q) refused it", key, rk.pattern)
				}
				for i := range ids {
					if *ptrs[i] != ids[i] {
						t.Fatalf("ScanKey(%q, %q) field %d = %d, want %d", key, rk.pattern, i, *ptrs[i], ids[i])
					}
				}
			}
		}
	}
}

// Below 1000, ScanKey reads every object key synth stages exactly as
// fmt.Sscanf does.
func TestScanKeyMatchesSscanfBelow1000(t *testing.T) {
	for s := 0; s < 1000; s++ {
		for _, v := range []int{s % 300, 999 - s} {
			var s1, v1, s2, v2 int
			key := NeuroKeyNPY(s, v)
			_, err := fmt.Sscanf(key, "neuro/npy/subj-%03d/vol-%03d.npy", &s1, &v1)
			if ok := ScanKey(key, "neuro/npy/subj-###/vol-###.npy", &s2, &v2); !ok || err != nil || s1 != s2 || v1 != v2 {
				t.Fatalf("%s: fmt reads %d, %d (%v), ScanKey %d, %d (%v)", key, s1, v1, err, s2, v2, ok)
			}
		}
		var s1, s2 int
		key := NeuroKeyNIfTI(s)
		_, err := fmt.Sscanf(key, "neuro/nii/subj-%03d.nii", &s1)
		if ok := ScanKey(key, "neuro/nii/subj-###.nii", &s2); !ok || err != nil || s1 != s2 {
			t.Fatalf("%s: fmt reads %d (%v), ScanKey %d (%v)", key, s1, err, s2, ok)
		}
	}
	for v := 0; v < 100; v++ {
		for sensor := 0; sensor < 100; sensor += 9 {
			var v1, s1, v2, s2 int
			key := AstroKeyFITS(v, sensor)
			_, err := fmt.Sscanf(key, "astro/fits/visit-%02d/sensor-%02d.fits", &v1, &s1)
			if ok := ScanKey(key, "astro/fits/visit-##/sensor-##.fits", &v2, &s2); !ok || err != nil || v1 != v2 || s1 != s2 {
				t.Fatalf("%s: fmt reads %d, %d (%v), ScanKey %d, %d (%v)", key, v1, s1, err, v2, s2, ok)
			}
		}
	}
}

// From subject 1000 on, fmt's fixed-width reads go wrong: s%03d reads
// s1000 as subject 100 with no error, and a staged key of subject 1000
// does not parse at all. ScanKey reads the whole digit run.
func TestScanKeyReadsPast999(t *testing.T) {
	var fromFmt, fromScan int
	if _, err := fmt.Sscanf("s1000", "s%03d", &fromFmt); err != nil || fromFmt != 100 {
		t.Fatalf("fmt read s1000 as %d (%v); the misread this guards against is gone", fromFmt, err)
	}
	if !ScanKey("s1000", "s###", &fromScan) || fromScan != 1000 {
		t.Fatalf("ScanKey read s1000 as %d", fromScan)
	}
	var s, v int
	key := NeuroKeyNPY(1000, 1)
	if _, err := fmt.Sscanf(key, "neuro/npy/subj-%03d/vol-%03d.npy", &s, &v); err == nil {
		t.Fatalf("fmt read %s; the failure this guards against is gone", key)
	}
	if !ScanKey(key, "neuro/npy/subj-###/vol-###.npy", &s, &v) || s != 1000 || v != 1 {
		t.Fatalf("ScanKey read %s as %d, %d", key, s, v)
	}
	for _, bad := range []string{"s1", "s01", "s0001", "s-01", "s100x", "s100/", "x100", "s"} {
		if ScanKey(bad, "s###", &s) {
			t.Errorf("ScanKey accepted %q, which FormatKey never writes", bad)
		}
	}
	for _, bad := range []string{"p-0_1", "p01_1", "p1_1/v1", "p1_", "p+1_1"} {
		var x, y, visit int
		if ScanKey(bad, "p#_#", &x, &y) || ScanKey(bad, "p#_#/v##", &x, &y, &visit) {
			t.Errorf("ScanKey accepted %q, which FormatKey never writes", bad)
		}
	}
}

// No key makes ScanKey panic, and a key it accepts is the key FormatKey
// writes for what it read.
func FuzzRecordKeys(f *testing.F) {
	for i, rk := range recordKeys {
		ids := make([]int, len(widths(rk.pattern)))
		f.Add(FormatKey(rk.pattern, ids...), uint8(i))
	}
	f.Add("s1000/b07/t999", uint8(3))
	f.Add("p-3_12/v04", uint8(7))
	f.Add("neuro/npy/subj-0100/vol-1.npy", uint8(4))
	f.Fuzz(func(t *testing.T, key string, which uint8) {
		rk := recordKeys[int(which)%len(recordKeys)]
		n := len(widths(rk.pattern))
		ids, ptrs := make([]int, n), make([]*int, n)
		for i := range ptrs {
			ptrs[i] = &ids[i]
		}
		if ScanKey(key, rk.pattern, ptrs...) {
			if again := FormatKey(rk.pattern, ids...); again != key {
				t.Fatalf("ScanKey(%q, %q) read %v, which FormatKey spells %q", key, rk.pattern, ids, again)
			}
		}
	})
}
