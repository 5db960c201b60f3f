package jsonl

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenScanRead hands arbitrary file bytes to the two ways a log is
// read back. Read must not panic and must report corruption exactly
// when a malformed line is followed by another non-empty line. Open
// must cut the file back to its last newline, and Scan must then
// deliver every line of what is left, in order, at strictly increasing
// offsets, each line equal to ReadAt at its offset and followed there by
// its newline.
func FuzzOpenScanRead(f *testing.F) {
	f.Add([]byte("{\"a\":1}\n{\"torn"))
	f.Add([]byte("ok\nbad\nok\n"))
	f.Add([]byte("\n\n{}\n[1]\nnot json"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "f.jsonl")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		last, firstBad := -1, -1
		for i, line := range bytes.Split(raw, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			if last = i; firstBad < 0 && !json.Valid(line) {
				firstBad = i
			}
		}
		if err, want := Read(path, json.Valid), firstBad >= 0 && firstBad < last; (err != nil) != want {
			t.Fatalf("Read: %v; a malformed line before the last: %v", err, want)
		}

		lf, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer lf.Close()
		kept := raw[:bytes.LastIndexByte(raw, '\n')+1]
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, kept) {
			t.Fatalf("Open left %q (%v), want %q", got, err, kept)
		}
		next := int64(0)
		err = lf.Scan(func(off int64, line []byte) {
			if off != next {
				t.Fatalf("a line at %d, the one before ends at %d", off, next)
			}
			at := make([]byte, len(line)+1)
			if _, err := lf.ReadAt(at, off); err != nil || !bytes.Equal(at[:len(line)], line) || at[len(line)] != '\n' {
				t.Fatalf("ReadAt(%d) = %q (%v), Scan gave %q", off, at, err, line)
			}
			next = off + int64(len(at))
		})
		if err != nil || next != int64(len(kept)) {
			t.Fatalf("Scan: %v after %d of %d bytes", err, next, len(kept))
		}
	})
}
