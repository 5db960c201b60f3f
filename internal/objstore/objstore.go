// Package objstore implements an S3-like object store: a flat key space of
// immutable byte blobs with prefix listing. It stands in for the Amazon S3
// staging area the paper keeps its input data in.
//
// Each object carries two sizes: len(Data), the real bytes of the scaled
// synthetic dataset, and ModelBytes, the size the object's real-world
// counterpart would have. Engines charge virtual ingest time from
// ModelBytes while decoding the real payload.
package objstore

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Object is an immutable stored blob.
type Object struct {
	Key        string
	Data       []byte
	ModelBytes int64 // paper-scale size; 0 means len(Data)
	// digest is shared by every copy of a stored object; nil on an
	// Object that never went through Put, and on one no longer than a
	// digest, which costs less to hash again than to remember.
	digest *digest
}

type digest struct {
	once sync.Once
	sum  [sha256.Size]byte
}

// Digest returns the SHA-256 of Data. A stored object of any size worth
// it computes it at the first call and keeps it, since its bytes never
// change; any number of readers of any copy of the object share that
// one computation.
func (o Object) Digest() [sha256.Size]byte {
	if o.digest == nil {
		return sha256.Sum256(o.Data)
	}
	o.digest.once.Do(func() { o.digest.sum = sha256.Sum256(o.Data) })
	return o.digest.sum
}

// Size returns the paper-scale size of the object.
func (o Object) Size() int64 {
	if o.ModelBytes > 0 {
		return o.ModelBytes
	}
	return int64(len(o.Data))
}

// Store is an in-memory object store. It is safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	objects map[string]Object
}

// New returns an empty store.
func New() *Store {
	return &Store{objects: make(map[string]Object)}
}

// Put stores data under key with an explicit paper-scale size. A modelBytes
// of 0 means the real size. Existing objects are overwritten, as in S3.
func (s *Store) Put(key string, data []byte, modelBytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := Object{Key: key, Data: data, ModelBytes: modelBytes}
	if len(data) > sha256.Size {
		o.digest = new(digest)
	}
	s.objects[key] = o
}

// Get returns the object at key.
func (s *Store) Get(key string) (Object, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok := s.objects[key]
	if !ok {
		return Object{}, fmt.Errorf("objstore: no such key %q", key)
	}
	return o, nil
}

// List returns the keys with the given prefix in lexical order. This is the
// operation Spark's master performs to enumerate input files before
// scheduling parallel downloads (Section 5.2.1 of the paper).
func (s *Store) List(prefix string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var keys []string
	for k := range s.objects {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Delete removes key if present.
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.objects, key)
}

// Len returns the number of stored objects.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}

// TotalModelBytes sums the paper-scale sizes of all objects under prefix.
func (s *Store) TotalModelBytes(prefix string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for k, o := range s.objects {
		if strings.HasPrefix(k, prefix) {
			n += o.Size()
		}
	}
	return n
}
