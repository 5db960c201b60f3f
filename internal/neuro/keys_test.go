package neuro

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"imagebench/internal/synth"
)

// Every neuroscience key helper spells IDs from 0 to 1,200 as fmt's
// fixed-width verbs did and reads them back, past 999 included: fmt's
// s%03d read s1000 as subject 100, so Spark's and Myria's masks of
// subjects 1000 and 100 collided, a staged .npy of subject 1000 was
// dropped, and Myria's fit merged blocks 00-09 of subject 1000.
func TestKeysRoundTrip(t *testing.T) {
	for id := 0; id <= 1200; id++ {
		other := 1200 - id
		if got, want := VolKey(id, other), fmt.Sprintf("s%03d/t%03d", id, other); got != want {
			t.Fatalf("VolKey = %q, fmt spells %q", got, want)
		}
		if s, v, err := ParseVolKey(VolKey(id, other)); err != nil || s != id || v != other {
			t.Fatalf("ParseVolKey(%q) = %d, %d, %v", VolKey(id, other), s, v, err)
		}
		var s int
		if got := SubjKey(id); got != fmt.Sprintf("s%03d", id) || !synth.ScanKey(got, "s###", &s) || s != id {
			t.Fatalf("SubjKey(%d) = %q, read back as %d", id, got, s)
		}
		if s, v, err := npyKeyIDs(synth.NeuroKeyNPY(id, other)); err != nil || s != id || v != other {
			t.Fatalf("npyKeyIDs(%q) = %d, %d, %v", synth.NeuroKeyNPY(id, other), s, v, err)
		}
		block := id % 100
		piece := synth.FormatKey("s###/b##/t###", id, block, other)
		if want := fmt.Sprintf("s%03d/b%02d/t%03d", id, block, other); piece != want {
			t.Fatalf("piece key %q, fmt spells %q", piece, want)
		}
		if got, want := pieceBlock(piece), fmt.Sprintf("s%03d/b%02d", id, block); got != want {
			t.Fatalf("pieceBlock(%q) = %q, want %q", piece, got, want)
		}
	}
	for _, bad := range []string{"neuro/npy/subj-1/vol-001.npy", "neuro/npy/subj-001/vol-001.npz", "neuro/nii/subj-001.nii"} {
		if _, _, err := npyKeyIDs(bad); err == nil {
			t.Errorf("npyKeyIDs accepted %q", bad)
		}
	}
}

// FuzzParseVolKey holds ParseVolKey, which cuts the key at its first
// slash, to the SplitN reading it replaced: the same keys accepted, read
// as the same IDs.
func FuzzParseVolKey(f *testing.F) {
	for _, k := range []string{VolKey(3, 41), VolKey(1000, 7), "s1/t", "/t001", "s001/", "s001/t001/x", "s+1/t-2", "x"} {
		f.Add(k)
	}
	f.Fuzz(func(t *testing.T, key string) {
		ws, wv, werr := -1, -1, error(nil)
		if parts := strings.SplitN(key, "/", 2); len(parts) != 2 || len(parts[0]) < 2 || len(parts[1]) < 2 {
			werr = fmt.Errorf("short")
		} else if ws, werr = strconv.Atoi(parts[0][1:]); werr == nil {
			wv, werr = strconv.Atoi(parts[1][1:])
		}
		s, v, err := ParseVolKey(key)
		if (err == nil) != (werr == nil) || err == nil && (s != ws || v != wv) {
			t.Fatalf("ParseVolKey(%q) = %d, %d, %v; SplitN reading gives %d, %d, %v", key, s, v, err, ws, wv, werr)
		}
	})
}
