package results

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/fstest"

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

// TestKeyNamesTheModelAndTheCommittedTables: a cost model that differs
// in one scalar, or one changed byte of a committed table, gives every
// experiment a different key, so a cache directory written by a binary
// with another model or other tables serves none of its entries.
func TestKeyNamesTheModelAndTheCommittedTables(t *testing.T) {
	m, committed := core.Provenance()
	base := saltOf(m, committed)
	q := core.Quick()
	if base != salt {
		t.Fatal("salt is not the hash of core.Provenance")
	}
	fig11 := Key("fig11", q)
	keyUnder := func(s [sha256.Size]byte) string {
		salt = s
		defer func() { salt = base }()
		return Key("fig11", q)
	}

	m.JitterFrac = 0.10
	if keyUnder(saltOf(m, committed)) == fig11 {
		t.Error("JitterFrac 0.25 -> 0.10 left the key unchanged")
	}

	// The embedded tables are the committed ones, all of them.
	goldens, err := os.ReadDir(filepath.Join("..", "core", "testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	copied := fstest.MapFS{}
	paths := []string{"testdata/full-profile.json"}
	for _, g := range goldens {
		paths = append(paths, "testdata/golden/"+g.Name())
	}
	for _, path := range paths {
		b, err := fs.ReadFile(committed, path)
		if err != nil {
			t.Fatalf("%s is not embedded: %v", path, err)
		}
		want, err := os.ReadFile(filepath.Join("..", "core", filepath.FromSlash(path)))
		if err != nil || !bytes.Equal(b, want) {
			t.Fatalf("embedded %s differs from the committed file (%v)", path, err)
		}
		copied[path] = &fstest.MapFile{Data: b}
	}
	if len(goldens) < len(core.All()) {
		t.Fatalf("%d goldens for %d experiments", len(goldens), len(core.All()))
	}
	m, _ = core.Provenance()
	if saltOf(m, copied) != base {
		t.Fatal("a copy of the committed tables hashes to another salt")
	}
	golden := copied["testdata/golden/fig11.json"].Data
	golden[len(golden)/2]++
	if keyUnder(saltOf(m, copied)) == fig11 {
		t.Error("one changed golden byte left the key unchanged")
	}
}

// TestAnOlderBinarysEntriesAreListedNotServed: a cache directory
// written under another cost model lists its keys until each is read,
// and serves none of them, under either key.
func TestAnOlderBinarysEntriesAreListedNotServed(t *testing.T) {
	dir := t.TempDir()
	m, committed := core.Provenance()
	m.JitterFrac = 0.10
	base := salt
	salt = saltOf(m, committed)
	q := core.Quick()
	old := &Entry{Key: Key("fig11", q), Experiment: "fig11", Profile: q, Table: sampleTable()}
	salt = base
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(old); err != nil {
		t.Fatal(err)
	}
	c.Close()

	c, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if keys := c.Keys(); len(keys) != 1 || keys[0] != old.Key {
		t.Fatalf("Keys() = %v, want the older binary's key", keys)
	}
	for _, k := range []string{old.Key, Key("fig11", q)} {
		if _, ok := c.Get(k); ok {
			t.Errorf("Get(%.12s) served the older binary's table", k)
		}
	}
	if keys := c.Keys(); len(keys) != 0 {
		t.Errorf("Keys() = %v after the read, want none", keys)
	}
}

// TestKeyAllocations holds Key to its cost before it named the model:
// the daemon computes one on every submit, so the salt is hashed once
// per process, not once a call.
func TestKeyAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	q := core.Quick()
	if n := testing.AllocsPerRun(100, func() { Key("fig11", q) }); n > 10 {
		t.Errorf("Key allocates %.0f times a call, want <= 10", n)
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

// entryFor builds a well-formed entry whose table differs by n.
func entryFor(id string, n int) *Entry {
	p := core.Quick().Apply(core.Overrides{ClusterNodes: []int{n + 2}})
	tab := sampleTable()
	tab.Set("a", "1", float64(n))
	return &Entry{Key: Key(id, p), Experiment: id, Profile: p, Table: tab}
}

func logSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, "results.log"))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestCorruptDiskEntryIsAMiss: a record damaged in the middle of the
// log is a miss for its key and for no other, and the Put that
// regenerates it is what later opens serve.
func TestCorruptDiskEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	es := []*Entry{entryFor("fig11", 0), entryFor("fig11", 1), entryFor("fig11", 2)}
	for _, e := range es { // three groups, so three records at known places
		if err := c.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	path := filepath.Join(dir, "results.log")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Damage the middle record just past its key, keeping its length.
	b[bytes.Index(b, []byte(es[1].Key))+65] = 'X'
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	// Open indexes the record by the key it claims; only the
	// read-through learns that it does not decode.
	c, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(c.Keys()); n != 3 {
		t.Fatalf("Open indexed %d records, want 3", n)
	}
	key := es[1].Key
	if _, ok := c.Get(key); ok {
		t.Error("corrupt record served as a hit")
	}
	if keys, n := c.Keys(), c.Stats().Entries; len(keys) != 2 || n != 2 {
		t.Errorf("after the failed read-through Keys() = %v, Entries = %d; a key Get cannot serve must not stay listed", keys, n)
	}
	for _, e := range []*Entry{es[0], es[2]} {
		if got, ok := c.Get(e.Key); !ok || got.Table.Get("a", "1") != e.Table.Get("a", "1") {
			t.Errorf("neighbour %.12s of the corrupt record not served", e.Key)
		}
	}
	// Corrupt entries regenerate: the next Put appends a new record and
	// lists the key again.
	before := logSize(t, dir)
	if err := c.Put(es[1]); err != nil {
		t.Fatal(err)
	}
	if logSize(t, dir) <= before {
		t.Error("regenerating Put appended nothing")
	}
	if keys, n := c.Keys(), c.Stats().Entries; len(keys) != 3 || n != 3 {
		t.Errorf("after regenerating Keys() = %v, Entries = %d, want 3", keys, n)
	}
	c.Close()
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c2.Get(key); !ok || got.Table.Get("a", "1") != 1 {
		t.Error("regenerated entry not served after reopen: the later record must supersede the corrupt one")
	}
}

// TestDuplicatePutAppendsNothing: the key is the record's identity.
func TestDuplicatePutAppendsNothing(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b := entryFor("fig11", 0), entryFor("fig11", 1)
	if err := c.Put(a, b, a); err != nil {
		t.Fatal(err)
	}
	size := logSize(t, dir)
	st := c.Stats()
	if st.LogRecords != 3 || st.LogFsyncs != 1 || st.Entries != 2 {
		// The repeat inside one batch is appended twice (the index is
		// consulted before the group is written); harmless, the later wins.
		t.Errorf("stats after one batch = %+v, want 3 records in 1 fsync, 2 entries", st)
	}
	if err := c.Put(a); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(entryFor("fig11", 1), a); err != nil {
		t.Fatal(err)
	}
	if got := logSize(t, dir); got != size {
		t.Errorf("duplicate Puts grew the log from %d to %d bytes", size, got)
	}
	if st := c.Stats(); st.LogRecords != 3 || st.LogFsyncs != 1 {
		t.Errorf("duplicate Puts moved the log counters: %+v", st)
	}
	// A reopened cache indexes them too.
	c.Close()
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Put(a, b); err != nil {
		t.Fatal(err)
	}
	if got := logSize(t, dir); got != size {
		t.Errorf("duplicate Puts after reopen grew the log from %d to %d bytes", size, got)
	}
}

// TestLoadRefusesARecordUnderTheWrongKey: the index trusts the key a
// line opens with, load does not. A record whose decoded key differs
// from the one requested (here: a second "key" member, which wins in
// the decoder) is a miss.
func TestLoadRefusesARecordUnderTheWrongKey(t *testing.T) {
	dir := t.TempDir()
	a, b := entryFor("fig11", 0), entryFor("fig11", 1)
	line, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	forged := `{"key":"` + a.Key + `",` + string(line[1:]) + "\n"
	if err := os.WriteFile(filepath.Join(dir, "results.log"), []byte(forged), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if keys := c.Keys(); len(keys) != 1 || keys[0] != a.Key {
		t.Fatalf("index = %v, want the claimed key", keys)
	}
	if e, ok := c.Get(a.Key); ok {
		t.Errorf("served %.12s's table under key %.12s", e.Key, a.Key)
	}
	if _, ok := c.Get(b.Key); ok {
		t.Error("served a record under a key its line does not open with")
	}

	// Nor is a record that says a's key throughout but holds b's content:
	// the key is a hash of the content, and load recomputes it.
	dir = t.TempDir()
	line, _ = json.Marshal(&Entry{Key: a.Key, Experiment: b.Experiment, Profile: b.Profile, Table: b.Table})
	if err := os.WriteFile(filepath.Join(dir, "results.log"), append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if c, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(a.Key); ok {
		t.Error("served content that does not hash to the key it is filed under")
	}
}

// TestTruncatedLogAtEveryOffset is the crash contract: whatever prefix
// of the last group reached the disk, the log opens, every record of
// the earlier groups is served, a record of the last group is served
// only if all of its bytes survived, and the next Put appends a
// well-formed line.
func TestTruncatedLogAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	early := []*Entry{entryFor("fig11", 0), entryFor("fig11", 1), entryFor("fig11", 2)}
	if err := c.Put(early[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(early[1], early[2]); err != nil {
		t.Fatal(err)
	}
	groupStart := logSize(t, dir)
	last := []*Entry{entryFor("fig12a", 0), entryFor("fig12a", 1), entryFor("fig12a", 2)}
	if err := c.Put(last...); err != nil {
		t.Fatal(err)
	}
	c.Close()
	full, err := os.ReadFile(filepath.Join(dir, "results.log"))
	if err != nil {
		t.Fatal(err)
	}
	// ends[i] is the offset just past record i's newline.
	var ends []int64
	for i, b := range full {
		if b == '\n' && int64(i) >= groupStart {
			ends = append(ends, int64(i)+1)
		}
	}
	if len(ends) != 3 {
		t.Fatalf("last group holds %d lines, want 3", len(ends))
	}
	extra := entryFor("fig12b", 0)

	for cut := groupStart; cut <= int64(len(full)); cut++ {
		d := t.TempDir()
		path := filepath.Join(d, "results.log")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(d)
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		for _, e := range early {
			if got, ok := c.Get(e.Key); !ok || got.Table.Get("a", "1") != e.Table.Get("a", "1") {
				t.Fatalf("cut %d: record %.12s of an earlier group not served", cut, e.Key)
			}
		}
		for i, e := range last {
			// The newline is not part of the record, but a record without
			// it is the torn tail: it was never acknowledged.
			_, ok := c.Get(e.Key)
			if want := cut >= ends[i]; ok != want {
				t.Fatalf("cut %d: record %d of the last group served = %v, want %v", cut, i, ok, want)
			}
		}
		if err := c.Put(extra); err != nil {
			t.Fatalf("cut %d: Put: %v", cut, err)
		}
		c.Close()
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range bytes.Split(bytes.TrimSuffix(after, []byte("\n")), []byte("\n")) {
			var e Entry
			if err := json.Unmarshal(line, &e); err != nil || e.Table == nil {
				t.Fatalf("cut %d: line %d of the log after the next Put is not a record: %v", cut, i, err)
			}
		}
		c, err = Open(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(extra.Key); !ok {
			t.Fatalf("cut %d: the Put after the repair is not served by a second Open", cut)
		}
		c.Close()
	}
}

// TestConcurrentPutsAreAllReadableAfterReopen: every acknowledged entry
// is in the log, whoever it shared a group with.
func TestConcurrentPutsAreAllReadableAfterReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 6, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				// Every third entry is one another writer puts too.
				e := entryFor("fig11", w*each+i)
				if i%3 == 0 {
					e = entryFor("fig12a", i)
				}
				if err := c.Put(e); err != nil {
					t.Errorf("Put: %v", err)
				}
				if _, ok := c.Get(e.Key); !ok {
					t.Errorf("entry %.12s missing right after its Put", e.Key)
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.LogFsyncs < 1 || st.LogFsyncs > st.LogRecords {
		t.Errorf("log counters %+v: at most one fsync a record", st)
	}
	c.Close()

	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got, want := len(c2.Keys()), st.Entries; got != want {
		t.Errorf("reopened cache lists %d keys, the writer had %d", got, want)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < each; i++ {
			e := entryFor("fig11", w*each+i)
			if i%3 == 0 {
				e = entryFor("fig12a", i)
			}
			got, ok := c2.Get(e.Key)
			if !ok || got.Key != e.Key || got.Table.Get("a", "1") != e.Table.Get("a", "1") {
				t.Fatalf("acknowledged entry %.12s not readable through a second Open", e.Key)
			}
		}
	}
	if st := c2.Stats(); st.DiskHits == 0 || st.LogRecords != 0 {
		t.Errorf("second Open stats %+v: reads are disk hits and append nothing", st)
	}
}

// FuzzOpenLog feeds arbitrary bytes in as results.log: Open neither
// panics nor fails on content, and whatever it serves is filed under
// its own content key.
func FuzzOpenLog(f *testing.F) {
	good, _ := json.Marshal(entryFor("fig11", 0))
	other, _ := json.Marshal(entryFor("fig12a", 1))
	f.Add([]byte(""))
	f.Add(append(append([]byte{}, good...), '\n'))
	f.Add([]byte(string(good) + "\n" + string(other) + "\n"))
	f.Add([]byte(string(good) + "\n" + string(other[:len(other)/2])))
	f.Add([]byte(string(good[:90]) + "\n\n{\"key\":\"\n" + string(other) + "\n"))
	f.Add([]byte(`{"key":"` + entryFor("fig11", 0).Key + `",` + string(other[1:]) + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "results.log"), data, 0o644); err != nil {
			t.Skip(err)
		}
		c, err := Open(dir)
		if err != nil {
			t.Fatalf("Open failed on content: %v", err)
		}
		defer c.Close()
		for _, k := range c.Keys() {
			e, ok := c.Get(k)
			if !ok {
				continue
			}
			if e.Key != k || e.Table == nil {
				t.Fatalf("Get(%.12s) served key %.12s, table %v", k, e.Key, e.Table)
			}
			if want := Key(e.Experiment, e.Profile); e.Key != want {
				t.Fatalf("Get(%.12s) served an entry whose content key is %.12s", k, want)
			}
		}
		if err := c.Put(entryFor("fig12b", 7)); err != nil {
			t.Fatalf("Put after opening arbitrary bytes: %v", err)
		}
	})
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

// TestPeekDoesNotSkewCounters pins Peek's contract: it serves entries
// from memory and disk exactly like Get but leaves the traffic
// counters untouched, so journal replay and other bookkeeping lookups
// do not inflate hit rates.
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
