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
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Object is an immutable stored blob.
type Object struct {
	Key        string
	Data       []byte
	ModelBytes int64 // paper-scale size; 0 means len(Data)
	// held is shared by every copy of a stored object; nil on an
	// Object that never went through Put, and on one of no more than
	// heldMin bytes.
	held *held
}

// heldMin is the size up to which a stored object holds no decode: the
// ablation stores put dozens of one-byte objects per cell, and a slot
// for each costs more than decoding one again.
const heldMin = 32

// held is the value an object's first decode produced.
type held struct {
	mu   sync.Mutex // taken by the callers that find the slot empty
	done atomic.Bool
	val  any
	err  error
}

// Decoded returns what decode returns for Data. A stored object runs it
// at the first call on any of its copies and keeps the value and the
// error, since its bytes never change: every later call, from any
// goroutine, gets them without running decode, to read and never to
// write. One object has one decoding, so its callers pass the same
// decode. A decode that panics keeps nothing, and the next call runs it
// again. An object that never went through Put, or one of no more than
// heldMin bytes, runs decode on every call.
func (o Object) Decoded(decode func([]byte) (any, error)) (any, error) {
	h := o.held
	if h == nil {
		return decode(o.Data)
	}
	if !h.done.Load() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if !h.done.Load() {
			h.val, h.err = decode(o.Data)
			h.done.Store(true)
		}
	}
	return h.val, h.err
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
// of 0 means the real size. Existing objects are overwritten, as in S3,
// and the new object holds no decode of the old one's bytes.
func (s *Store) Put(key string, data []byte, modelBytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := Object{Key: key, Data: data, ModelBytes: modelBytes}
	if len(data) > heldMin {
		o.held = new(held)
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
	n := 0
	for k := range s.objects {
		if strings.HasPrefix(k, prefix) {
			n++
		}
	}
	keys := make([]string, 0, n)
	for k := range s.objects {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
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
