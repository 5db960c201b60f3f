package results

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"imagebench/internal/core"
)

func sampleTable() *core.Table {
	t := core.NewTable("sample", "virtual s", []string{"a", "b"}, []string{"1", "2"})
	t.Set("a", "1", 1.5)
	t.Set("b", "2", 3000)
	t.Notes = append(t.Notes, "a note")
	return t
}

func TestKeyStableAndDiscriminating(t *testing.T) {
	q := core.Quick()
	if Key("fig11", q) != Key("fig11", core.Quick()) {
		t.Error("identical (experiment, profile) must produce identical keys")
	}
	if Key("fig11", q) == Key("fig12a", q) {
		t.Error("different experiments must produce different keys")
	}
	if Key("fig11", q) == Key("fig11", core.Full()) {
		t.Error("different profiles must produce different keys")
	}
	mutated := core.Quick()
	mutated.NeuroT++
	if Key("fig11", q) == Key("fig11", mutated) {
		t.Error("any profile parameter change must change the key")
	}
	if k := Key("fig11", q); !validKey(k) {
		t.Errorf("key %q is not 64 hex chars", k)
	}
}

func TestMemoryCache(t *testing.T) {
	c, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	key := Key("fig11", core.Quick())
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	e := &Entry{Key: key, Experiment: "fig11", Profile: core.Quick(), Table: sampleTable()}
	if err := c.Put(e); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok || got.Table.Get("a", "1") != 1.5 {
		t.Fatalf("Get after Put: ok=%v table=%+v", ok, got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

func TestDiskRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("fig10c", core.Quick())
	if err := c.Put(&Entry{Key: key, Experiment: "fig10c", Profile: core.Quick(), Table: sampleTable()}); err != nil {
		t.Fatal(err)
	}

	// A fresh cache over the same directory serves the entry from disk,
	// NaN cells intact.
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key)
	if !ok {
		t.Fatal("reopened cache missed a persisted entry")
	}
	if !math.IsNaN(got.Table.Get("a", "2")) {
		t.Error("NA cell did not round-trip as NaN")
	}
	if got.Table.Get("b", "2") != 3000 {
		t.Errorf("cell = %v, want 3000", got.Table.Get("b", "2"))
	}
	if got.Experiment != "fig10c" || got.Profile.Name != "quick" {
		t.Errorf("provenance lost: %+v", got)
	}
	if keys := c2.Keys(); len(keys) != 1 || keys[0] != key {
		t.Errorf("Keys() = %v, want [%s]", keys, key)
	}
}

func TestCorruptDiskEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	key := Key("fig11", core.Quick())
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Open indexes the file by name; only the read-through learns that
	// it does not decode.
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Error("corrupt file served as a hit")
	}
	if keys, n := c.Keys(), c.Stats().Entries; len(keys) != 0 || n != 0 {
		t.Errorf("after the failed read-through Keys() = %v, Entries = %d; a key Get cannot serve must not stay listed", keys, n)
	}
	// Corrupt entries regenerate: the next Put replaces the file and
	// lists the key again.
	if err := c.Put(&Entry{Key: key, Experiment: "fig11", Profile: core.Quick(), Table: sampleTable()}); err != nil {
		t.Fatal(err)
	}
	if keys, n := c.Keys(), c.Stats().Entries; len(keys) != 1 || keys[0] != key || n != 1 {
		t.Errorf("after regenerating Keys() = %v, Entries = %d, want [%s] and 1", keys, n, key)
	}
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(key); !ok {
		t.Error("regenerated entry not served after reopen")
	}
}

func TestInvalidKeysNeverTouchDisk(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"", "../../etc/passwd", "ZZZZ", "abc"} {
		if _, ok := c.Get(k); ok {
			t.Errorf("Get(%q) reported a hit", k)
		}
	}
	if err := c.Put(&Entry{Key: "", Table: sampleTable()}); err == nil {
		t.Error("Put with empty key must fail")
	}
}

// TestPeekDoesNotSkewCounters pins the recovery contract: Peek serves
// entries from memory and disk exactly like Get but leaves the traffic
// counters untouched, so restart rehydration does not inflate hit rates.
func TestPeekDoesNotSkewCounters(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("fig11", core.Quick())
	if _, ok := c.Peek(key); ok {
		t.Fatal("peek hit on empty cache")
	}
	if err := c.Put(&Entry{Key: key, Experiment: "fig11", Profile: core.Quick(), Table: sampleTable()}); err != nil {
		t.Fatal(err)
	}
	if e, ok := c.Peek(key); !ok || e.Experiment != "fig11" {
		t.Fatalf("peek after put = %v, %v", e, ok)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("peek moved counters: %+v", st)
	}
	// Peek also reads through from disk on a fresh cache over the same dir.
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := c2.Peek(key); !ok || e.Table.Get("a", "1") != 1.5 {
		t.Fatalf("disk peek = %v, %v", e, ok)
	}
	if st := c2.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Errorf("disk peek moved counters: %+v", st)
	}
}
