package core

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden/")

// goldenIDs pins every registered experiment byte-for-byte: the
// simulator is deterministic, so for each ID + profile the JSON is
// reproducible and any diff is a semantic change. results.Key hashes
// these files, so regenerating one moves every result key. Enumerating the
// registry (rather than a hand-picked list) means a newly registered
// experiment fails TestGoldenFilesAreCommitted until its golden file is
// generated with -update.
func goldenIDs() []string {
	ids := make([]string, 0, len(All()))
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// TestGoldenTables locks the quick-profile JSON of every registered
// experiment against testdata/golden/. Regenerate intentionally with:
//
//	go test ./internal/core -run TestGoldenTables -update
func TestGoldenTables(t *testing.T) {
	for _, id := range goldenIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			tab, err := e.Run(context.Background(), Quick())
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(tab, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", id+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s quick-profile output drifted from %s (run with -update if intentional)\n%s",
					id, path, diffHint(want, got))
			}
		})
	}
}

// diffHint points at the first differing line — enough to orient
// without pulling in a diff library.
func diffHint(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("first diff at line %d:\n  golden: %s\n  got:    %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length differs: golden %d lines, got %d lines", len(wl), len(gl))
}

// TestGoldenFilesAreCommitted guards against an -update that silently
// never ran: every registered experiment must have its golden file, so
// registering a new experiment without golden-pinning it is a test
// failure, not a silent coverage gap.
func TestGoldenFilesAreCommitted(t *testing.T) {
	for _, id := range goldenIDs() {
		if _, err := os.Stat(filepath.Join("testdata", "golden", id+".json")); err != nil {
			t.Errorf("missing golden file for %s: %v", id, err)
		}
	}
}
