package objstore

import (
	"bytes"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
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

func TestTotalModelBytes(t *testing.T) {
	s := New()
	s.Put("x/1", nil, 10)
	s.Put("x/2", nil, 20)
	s.Put("y/1", nil, 40)
	if n := s.TotalModelBytes("x/"); n != 30 {
		t.Errorf("total %d", n)
	}
	if s.Len() != 3 {
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

// countDecode returns a decode that counts its runs and returns a new
// pointer each time, or err.
func countDecode(runs *atomic.Int64, err error) func([]byte) (any, error) {
	return func(b []byte) (any, error) {
		runs.Add(1)
		if err != nil {
			return nil, err
		}
		return &b, nil
	}
}

// Copies of one stored object, decoded from many goroutines at once,
// run decode once and all get its pointer; an error reaches every
// caller the same way. An object of heldMin bytes or fewer, and one
// that never went through Put, decode on every call, and overwriting
// a key serves the new bytes, not the old object's held value.
func TestDecodedIsSharedByEveryCopy(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	s := New()
	long := bytes.Repeat([]byte("exposure"), 100)
	s.Put("long", long, 0)
	s.Put("bad", long[:heldMin+1], 0)
	boom := errors.New("boom")
	for _, c := range []struct {
		key string
		err error
	}{{"long", nil}, {"bad", boom}} {
		var runs atomic.Int64
		decode := countDecode(&runs, c.err)
		vals := make([]any, 16)
		errs := make([]error, len(vals))
		var wg sync.WaitGroup
		for i := range vals {
			wg.Add(1)
			go func() {
				defer wg.Done()
				o, _ := s.Get(c.key) // a copy of its own
				vals[i], errs[i] = o.Decoded(decode)
			}()
		}
		wg.Wait()
		if runs.Load() != 1 {
			t.Errorf("%s: decode ran %d times for %d callers, want 1", c.key, runs.Load(), len(vals))
		}
		for i := range vals {
			if vals[i] != vals[0] || errs[i] != c.err {
				t.Errorf("%s: caller %d got %p (%v), caller 0 %p, want error %v", c.key, i, vals[i], errs[i], vals[0], c.err)
			}
		}
	}

	s.Put("short", long[:heldMin], 0)
	short, _ := s.Get("short")
	for _, o := range []Object{short, {Key: "literal", Data: long}} {
		var runs atomic.Int64
		a, _ := o.Decoded(countDecode(&runs, nil))
		b, _ := o.Decoded(countDecode(&runs, nil))
		if runs.Load() != 2 || a == b {
			t.Errorf("%s (%d bytes): %d decodes for two calls, want 2", o.Key, len(o.Data), runs.Load())
		}
	}

	old, _ := s.Get("long")
	var runs atomic.Int64
	held, _ := old.Decoded(countDecode(&runs, nil))
	s.Put("long", []byte("something else, longer than heldMin bytes"), 0)
	now, _ := s.Get("long")
	got, _ := now.Decoded(func(b []byte) (any, error) { return string(b), nil })
	if got != "something else, longer than heldMin bytes" {
		t.Errorf("the overwritten key decoded to %v, want its new bytes", got)
	}
	if again, _ := old.Decoded(countDecode(&runs, nil)); again != held || runs.Load() != 0 {
		t.Error("the overwritten object's holders lost its held value")
	}
}

// A panicking decode keeps nothing: the caller sees the panic and the
// next call decodes.
func TestDecodedPanicKeepsNothing(t *testing.T) {
	s := New()
	s.Put("k", bytes.Repeat([]byte{1}, 64), 0)
	o, _ := s.Get("k")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the panic in decode was swallowed")
			}
		}()
		o.Decoded(func([]byte) (any, error) { panic("decoder bug") })
	}()
	var runs atomic.Int64
	if v, err := o.Decoded(countDecode(&runs, nil)); v == nil || err != nil || runs.Load() != 1 {
		t.Fatalf("after the panic: %v, %v, %d runs", v, err, runs.Load())
	}
}

func decodeLen(b []byte) (any, error) { return len(b), nil }

// A call on an object whose value is held is an atomic load: it
// allocates nothing.
func TestDecodedHitAllocatesNothing(t *testing.T) {
	s := New()
	s.Put("k", bytes.Repeat([]byte{1}, 64), 0)
	o, _ := s.Get("k")
	o.Decoded(decodeLen)
	if n := testing.AllocsPerRun(100, func() {
		if v, err := o.Decoded(decodeLen); v != 64 || err != nil {
			t.Fatalf("Decoded returned %v, %v", v, err)
		}
	}); n != 0 {
		t.Fatalf("a held decode allocates %v times a call, want 0", n)
	}
}

// List counts the matching keys before it fills its result: one
// allocation, at any number of keys.
func TestListAllocatesOnce(t *testing.T) {
	for _, n := range []int{64, 512} {
		s := New()
		s.Put("other", nil, 0)
		for i := 0; i < n; i++ {
			s.Put("in/"+strconv.Itoa(i), nil, 0)
		}
		if got := testing.AllocsPerRun(20, func() { s.List("in/") }); got != 1 {
			t.Errorf("List of %d keys allocates %v times, want 1", n, got)
		}
	}
}
