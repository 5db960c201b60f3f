// Package results is the content-addressed result cache of the
// experiment service. Every experiment run is keyed by a stable hash of
// (experiment ID, profile); the cache stores the resulting core.Table
// as JSON in memory and, optionally, on disk, so that identical
// requests — across jobs, processes, and restarts — are answered
// without re-simulating. This is the provenance-style result reuse the
// ROADMAP calls for: the simulator is deterministic, so a key fully
// determines its table.
package results

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"imagebench/internal/core"
	"imagebench/internal/fsatomic"
)

// Key returns the content address for one (experiment, profile) run:
// a hex SHA-256 over a versioned encoding of the experiment ID and the
// profile fingerprint. Bump the version prefix when the simulation
// semantics change incompatibly.
func Key(experimentID string, p core.Profile) string {
	h := sha256.New()
	fmt.Fprintf(h, "imagebench/result/v1\x00%s\x00%s", experimentID, p.Fingerprint())
	return hex.EncodeToString(h.Sum(nil))
}

// Entry is one cached result with enough provenance to list and
// re-render it without consulting the scheduler.
type Entry struct {
	Key        string       `json:"key"`
	Experiment string       `json:"experiment"`
	Profile    core.Profile `json:"profile"`
	Table      *core.Table  `json:"table"`
}

// Stats reports cache traffic since the process started. Hits is
// always MemHits+DiskHits: the per-layer split says which tier served
// the entry (memory, or a lazy read-through from disk).
type Stats struct {
	Hits     int64 `json:"hits"`
	MemHits  int64 `json:"memHits"`
	DiskHits int64 `json:"diskHits"`
	Misses   int64 `json:"misses"`
	Entries  int   `json:"entries"`
}

// Cache is a concurrency-safe result cache. The in-memory map is the
// source of truth; when opened with a directory, entries are also
// written through as one JSON file per key and lazily re-read on miss,
// so a restarted daemon warms itself from disk on demand.
type Cache struct {
	dir string // "" = memory only

	mu   sync.RWMutex
	mem  map[string]*Entry
	disk map[string]bool // keys present on disk: seeded at Open, maintained by Put/load

	memHits  atomic.Int64
	diskHits atomic.Int64
	misses   atomic.Int64
}

// Open returns a cache backed by dir, creating it if needed. An empty
// dir yields a memory-only cache. The directory is scanned once here;
// afterwards Keys and Stats never touch the disk, so files added to the
// directory by another process are found by Get (which reads through)
// but not listed.
func Open(dir string) (*Cache, error) {
	c := &Cache{dir: dir, mem: make(map[string]*Entry)}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("results: open %s: %w", dir, err)
		}
		c.disk = make(map[string]bool)
		names, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("results: scan %s: %w", dir, err)
		}
		for _, f := range names {
			k := strings.TrimSuffix(f.Name(), ".json")
			if validKey(k) && k != f.Name() {
				c.disk[k] = true
			}
		}
	}
	return c, nil
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

// Peek is Get without the traffic counters: recovery and sweep-status
// paths rehydrate completed results through it after a restart, so
// hit/miss rates keep reflecting client traffic only.
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
	e, ok := c.mem[key]
	c.mu.RUnlock()
	if ok {
		return e, layerMem, true
	}
	if c.dir != "" {
		if e, ok := c.load(key); ok {
			return e, layerDisk, true
		}
	}
	return nil, "", false
}

// Put stores the entry in memory and, if the cache is disk-backed,
// writes it through atomically (temp file + rename).
func (c *Cache) Put(e *Entry) error {
	if !validKey(e.Key) || e.Table == nil {
		return fmt.Errorf("results: refusing to cache entry with malformed key %q or nil table", e.Key)
	}
	c.mu.Lock()
	c.mem[e.Key] = e
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("results: encode %s: %w", e.Key, err)
	}
	if err := fsatomic.WriteFile(c.path(e.Key), b); err != nil {
		return err
	}
	c.mu.Lock()
	c.disk[e.Key] = true
	c.mu.Unlock()
	return nil
}

// load reads one entry from disk into memory. A corrupt or unreadable
// file is treated as a miss: the simulator can always regenerate it. A
// file that does not decode is also dropped from the disk index, so
// Keys and Stats stop listing a key Get cannot serve; the Put that
// regenerates it lists it again.
func (c *Cache) load(key string) (*Entry, bool) {
	if !validKey(key) {
		return nil, false
	}
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var e Entry
	if err := json.Unmarshal(b, &e); err != nil || e.Key != key || e.Table == nil {
		c.mu.Lock()
		// A concurrent Put sets mem before it replaces the file; its
		// index entry is not this stale one.
		if c.mem[key] == nil {
			delete(c.disk, key)
		}
		c.mu.Unlock()
		return nil, false
	}
	c.mu.Lock()
	c.mem[key] = &e
	c.disk[key] = true
	c.mu.Unlock()
	return &e, true
}

// Keys returns every cached key, sorted: the union of memory and the
// disk keys known since Open (no directory scan).
func (c *Cache) Keys() []string {
	c.mu.RLock()
	set := make(map[string]bool, len(c.mem)+len(c.disk))
	for k := range c.mem {
		set[k] = true
	}
	for k := range c.disk {
		set[k] = true
	}
	c.mu.RUnlock()
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Stats returns traffic counters and the current entry count.
func (c *Cache) Stats() Stats {
	c.mu.RLock()
	n := len(c.disk)
	for k := range c.mem {
		if !c.disk[k] {
			n++
		}
	}
	c.mu.RUnlock()
	mem, disk := c.memHits.Load(), c.diskHits.Load()
	return Stats{
		Hits:     mem + disk,
		MemHits:  mem,
		DiskHits: disk,
		Misses:   c.misses.Load(),
		Entries:  n,
	}
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// validKey guards the disk paths: keys are lowercase hex SHA-256, so
// anything else (path traversal, stray files) is rejected.
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
