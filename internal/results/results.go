// Package results is the content-addressed result cache of the
// experiment service. Every experiment run is keyed by a stable hash of
// (experiment ID, profile, cost model, committed tables); the cache
// stores the resulting core.Table in memory and, optionally, in an
// append-only log on disk, so that identical requests — across jobs,
// processes, and restarts — are answered without re-simulating. This
// is the provenance-style result reuse the ROADMAP calls for: the
// simulator is deterministic, so a key fully determines its table, a
// record is never overwritten, and a duplicate Put is a no-op. What a
// Put guarantees once it returns is the "Durability" section of the
// README.
package results

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"imagebench/internal/core"
	"imagebench/internal/cost"
	"imagebench/internal/jsonl"
)

// Key returns the content address for one (experiment, profile) run: a
// hex SHA-256 over the experiment ID, the profile fingerprint and salt.
// A change to the cost model, or one that moves a committed table, moves
// every key: a directory an older binary wrote lists its keys until each
// is read, and serves none. A code change seen only under override
// profiles, which no committed table pins, moves none. Cells that share
// one run (core.Experiment.Canonical) keep their own keys.
func Key(experimentID string, p core.Profile) string {
	var buf [256]byte // room for an ID of 137 bytes; a longer one spills to the heap
	b := append(buf[:0], "imagebench/result/v2\x00"...)
	b = append(append(b, experimentID...), 0)
	b = append(p.AppendFingerprint(b), 0)
	sum := sha256.Sum256(append(b, salt[:]...))
	return string(hex.AppendEncode(buf[:0], sum[:]))
}

// salt is what every table depends on besides its experiment and
// profile (core.Provenance), hashed once per process.
var salt = saltOf(core.Provenance())

func saltOf(m cost.Model, committed fs.FS) [sha256.Size]byte {
	h := sha256.New()
	err := json.NewEncoder(h).Encode(m)
	if err == nil {
		err = fs.WalkDir(committed, ".", func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				var b []byte
				b, err = fs.ReadFile(committed, path)
				fmt.Fprintf(h, "\x00%s\x00%d\x00%s", path, len(b), b)
			}
			return err
		})
	}
	if err != nil {
		panic("results: hash the committed tables: " + err.Error())
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// Entry is one cached result with enough provenance to list and
// re-render it without consulting the scheduler.
type Entry struct {
	Key        string       `json:"key"`
	Experiment string       `json:"experiment"`
	Profile    core.Profile `json:"profile"`
	Table      *core.Table  `json:"table"`
}

// filedUnder reports whether a decoded record is what key addresses: it
// says so, its content hashes to it, and it carries a table. Bytes read
// back from disk are served only if it holds.
func (e *Entry) filedUnder(key string) bool {
	return e.Key == key && e.Table != nil && Key(e.Experiment, e.Profile) == key
}

// Stats reports cache traffic since the process started. Hits is
// always MemHits+DiskHits: the per-layer split says which tier served
// the entry (memory, or a lazy read-through from disk). LogRecords over
// LogFsyncs is the group size the disk tier is achieving.
type Stats struct {
	Hits       int64 `json:"hits"`
	MemHits    int64 `json:"memHits"`
	DiskHits   int64 `json:"diskHits"`
	Misses     int64 `json:"misses"`
	Entries    int   `json:"entries"`
	LogRecords int64 `json:"logRecords"` // records appended to the log
	LogFsyncs  int64 `json:"logFsyncs"`  // fsyncs issued for them, one a group
}

// span locates one record's line in the log, newline excluded.
type span struct {
	off int64
	n   int
}

// held is one entry of the memory tier, with its body once JSON has
// made it, so that whatever drops the entry drops both.
type held struct {
	e    *Entry
	body []byte // nil until the entry's first JSON call
}

// Cache is a concurrency-safe result cache. The in-memory map is the
// source of truth; when opened with a directory, entries are also
// appended to its results.log, a line each, and lazily re-read on miss,
// so a restarted daemon warms itself from disk on demand.
type Cache struct {
	log *jsonl.File // nil = memory only

	mu   sync.RWMutex
	mem  map[string]held
	disk map[string]span // records in the log: built at Open, maintained by Put/load

	memHits, diskHits, misses, appended atomic.Int64
}

// Open returns a cache backed by dir, creating it if needed. An empty
// dir yields a memory-only cache. The log is scanned once here to index
// where each key's record lies, without decoding any table; afterwards
// Keys and Stats never touch the disk. One process owns a cache
// directory at a time (README "Durability").
func Open(dir string) (*Cache, error) {
	c := &Cache{mem: make(map[string]held)}
	if dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("results: open %s: %w", dir, err)
	}
	log, err := jsonl.Open(filepath.Join(dir, "results.log"))
	if err != nil {
		return nil, err
	}
	c.log, c.disk = log, make(map[string]span)
	err = log.Scan(func(off int64, line []byte) {
		// Entry encodes its key first, so the index needs no decoding;
		// load verifies the claim. A later record supersedes an earlier one.
		const pre = `{"key":"`
		if len(line) > len(pre)+64 && string(line[:len(pre)]) == pre && line[len(pre)+64] == '"' {
			if k := string(line[len(pre) : len(pre)+64]); validKey(k) {
				c.disk[k] = span{off, len(line)}
			}
		}
	})
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("results: open %s: %w", dir, err)
	}
	return c, nil
}

// Close releases the log; the cache keeps serving from memory.
func (c *Cache) Close() error {
	if c.log == nil {
		return nil
	}
	return c.log.Close()
}

// Get returns the entry for key, consulting memory first and then disk.
// The boolean reports whether the key was found; hit/miss counters are
// updated either way, and hits are attributed to the layer that served
// them (memory, or a disk read-through).
func (c *Cache) Get(key string) (*Entry, bool) {
	e, layer, ok := c.peek(key)
	if ok {
		if layer == layerMem {
			c.memHits.Add(1)
		} else {
			c.diskHits.Add(1)
		}
		return e, true
	}
	c.misses.Add(1)
	return nil, false
}

// Peek is Get without the traffic counters, for lookups that are
// bookkeeping rather than traffic: journal compaction and replay ask
// it which submits already finished, an evicted job's poll checks its
// result is still there, and a sweep cell whose table was released
// after streaming reads it back. A recovered sweep does not use it:
// its cells are resubmitted, and the scheduler's Get counts their
// hits like any other submit's.
func (c *Cache) Peek(key string) (*Entry, bool) {
	e, _, ok := c.peek(key)
	return e, ok
}

// Cache layers, for hit attribution.
const (
	layerMem  = "memory"
	layerDisk = "disk"
)

// peek is the shared lookup: memory first, then a disk read-through.
// It reports which layer served the entry.
func (c *Cache) peek(key string) (*Entry, string, bool) {
	c.mu.RLock()
	h, ok := c.mem[key]
	sp, onDisk := c.disk[key]
	c.mu.RUnlock()
	if ok {
		return h.e, layerMem, true
	}
	if onDisk {
		if e, ok := c.load(key, sp); ok {
			return e, layerDisk, true
		}
	}
	return nil, "", false
}

// Put stores the entries in memory and, if the cache is disk-backed,
// appends the ones the log does not hold yet as one group, returning
// after that group's fsync. Nothing is stored unless every entry is
// well-formed.
func (c *Cache) Put(entries ...*Entry) error {
	for _, e := range entries {
		if !validKey(e.Key) || e.Table == nil {
			return fmt.Errorf("results: refusing to cache entry with malformed key %q or nil table", e.Key)
		}
	}
	var fresh []*Entry
	c.mu.Lock()
	for _, e := range entries {
		c.mem[e.Key] = held{e: e}
		if _, logged := c.disk[e.Key]; c.log != nil && !logged {
			fresh = append(fresh, e)
		}
	}
	c.mu.Unlock()
	if len(fresh) == 0 {
		return nil
	}
	lines := make([][]byte, len(fresh))
	for i, e := range fresh {
		b, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("results: encode %s: %w", e.Key, err)
		}
		lines[i] = b
	}
	offs, err := c.log.Commit(lines...)
	if err != nil {
		return err
	}
	c.mu.Lock()
	for i, e := range fresh {
		c.disk[e.Key] = span{offs[i], len(lines[i])}
	}
	c.mu.Unlock()
	c.appended.Add(int64(len(fresh)))
	return nil
}

// load reads the record at sp into memory. A corrupt or unreadable
// record is treated as a miss: the simulator can always regenerate it.
// A record that does not decode to the requested key (filedUnder) is
// also dropped from the index, so Keys and Stats stop listing a key Get cannot
// serve; the Put that regenerates it appends a new record and lists it
// again.
func (c *Cache) load(key string, sp span) (*Entry, bool) {
	b := make([]byte, sp.n)
	var e Entry
	_, err := c.log.ReadAt(b, sp.off)
	if err == nil {
		err = json.Unmarshal(b, &e)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil || !e.filedUnder(key) {
		if c.disk[key] == sp { // not the record a concurrent Put just appended
			delete(c.disk, key)
		}
		return nil, false
	}
	c.mem[key] = held{e: &e}
	return &e, true
}

// JSON returns e, an entry Get or Peek returned, as the daemon serves it:
// json.MarshalIndent(e, "", "  ") and a newline, encoded on e's first
// call and held with it in memory, so later calls return the same shared
// bytes, never to be written. A failed encode holds nothing.
func (c *Cache) JSON(e *Entry) ([]byte, error) {
	c.mu.RLock()
	h := c.mem[e.Key]
	c.mu.RUnlock()
	if h.e == e && h.body != nil {
		return h.body, nil
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return nil, err
	}
	b = append(b, '\n')
	c.mu.Lock()
	if h := c.mem[e.Key]; h.e == e && h.body == nil { // neither replaced by a Put nor encoded meanwhile
		c.mem[e.Key] = held{e, b}
	}
	c.mu.Unlock()
	return b, nil
}

// Keys returns every cached key, sorted: the union of memory and the
// disk keys known since Open (no directory scan).
func (c *Cache) Keys() []string {
	c.mu.RLock()
	out := make([]string, 0, len(c.mem)+len(c.disk))
	for k := range c.disk {
		out = append(out, k)
	}
	for k := range c.mem {
		if _, logged := c.disk[k]; !logged {
			out = append(out, k)
		}
	}
	c.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Stats returns traffic counters and the current entry count.
func (c *Cache) Stats() Stats {
	c.mu.RLock()
	n := len(c.disk)
	for k := range c.mem {
		if _, logged := c.disk[k]; !logged {
			n++
		}
	}
	c.mu.RUnlock()
	st := Stats{MemHits: c.memHits.Load(), DiskHits: c.diskHits.Load(), Misses: c.misses.Load(),
		Entries: n, LogRecords: c.appended.Load()}
	st.Hits = st.MemHits + st.DiskHits
	if c.log != nil {
		st.LogFsyncs = c.log.Syncs()
	}
	return st
}

// validKey admits only lowercase hex SHA-256: nothing else is indexed
// or stored.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for _, r := range key {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}
