package objstore

import (
	"bytes"
	"crypto/sha256"
	"sync"
	"testing"
)

func TestPutGet(t *testing.T) {
	s := New()
	s.Put("a/b", []byte("hello"), 1000)
	o, err := s.Get("a/b")
	if err != nil {
		t.Fatal(err)
	}
	if string(o.Data) != "hello" || o.Size() != 1000 {
		t.Errorf("object %+v", o)
	}
	if _, err := s.Get("missing"); err == nil {
		t.Error("missing key accepted")
	}
	// Zero ModelBytes falls back to the real size.
	s.Put("c", []byte("xyz"), 0)
	if o, _ := s.Get("c"); o.Size() != 3 {
		t.Errorf("size %d", o.Size())
	}
}

func TestListSortedPrefix(t *testing.T) {
	s := New()
	for _, k := range []string{"n/2", "n/1", "a/3", "n/10"} {
		s.Put(k, nil, 1)
	}
	got := s.List("n/")
	want := []string{"n/1", "n/10", "n/2"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got %v, want %v", got, want)
		}
	}
}

func TestTotalModelBytesAndDelete(t *testing.T) {
	s := New()
	s.Put("x/1", nil, 10)
	s.Put("x/2", nil, 20)
	s.Put("y/1", nil, 40)
	if n := s.TotalModelBytes("x/"); n != 30 {
		t.Errorf("total %d", n)
	}
	s.Delete("x/1")
	if s.Len() != 2 {
		t.Errorf("len %d", s.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := string(rune('a' + i%4))
			s.Put(key, []byte{byte(i)}, int64(i))
			s.Get(key)
			s.List("")
		}(i)
	}
	wg.Wait()
}

// Digest is the SHA-256 of the bytes for a stored object of any size, an
// overwritten one and an Object literal; every copy of one stored object
// shares one digest, however many goroutines ask first.
func TestDigest(t *testing.T) {
	s := New()
	long := bytes.Repeat([]byte("exposure"), 100)
	s.Put("long", long, 0)
	s.Put("short", []byte{7}, 0)
	s.Put("empty", nil, 0)
	for _, key := range s.List("") {
		o, _ := s.Get(key)
		if o.Digest() != sha256.Sum256(o.Data) || o.Digest() != o.Digest() {
			t.Errorf("%s: digest is not the SHA-256 of its %d bytes", key, len(o.Data))
		}
	}
	if lit := (Object{Data: long}); lit.Digest() != sha256.Sum256(long) {
		t.Error("an Object literal's digest is not the SHA-256 of its bytes")
	}

	a, _ := s.Get("long")
	b, _ := s.Get("long")
	if a.digest == nil || a.digest != b.digest {
		t.Fatal("two copies of one stored object do not share a digest")
	}
	sums := make([][sha256.Size]byte, 8)
	var wg sync.WaitGroup
	for i := range sums {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o, _ := s.Get("long")
			sums[i] = o.Digest()
		}(i)
	}
	wg.Wait()
	for i, sum := range sums {
		if sum != sha256.Sum256(long) {
			t.Errorf("caller %d read %x", i, sum[:4])
		}
	}

	s.Put("long", []byte("something else, longer than one digest's 32 bytes"), 0)
	if o, _ := s.Get("long"); o.Digest() != sha256.Sum256(o.Data) || o.Digest() == a.Digest() {
		t.Error("an overwritten object kept its predecessor's digest")
	}
	if a.Digest() != sha256.Sum256(long) {
		t.Error("the overwritten object's holders lost its digest")
	}
}
