package memo

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"imagebench/internal/volume"
)

// reset empties the table and zeroes its counters, so a test can count
// from nothing whatever ran before it.
func reset() {
	table.mu.Lock()
	defer table.mu.Unlock()
	table.entries = make(map[Key]*entry[result])
	table.origin = nil
	table.stats = Stats{Kinds: make([]KindStats, numKinds)}
}

func keyOf(kind Kind, words ...uint64) Key {
	k := NewKey(kind)
	for _, w := range words {
		k.U64(w)
	}
	return k.sum()
}

func volumeKey(kind Kind, v *volume.V3) Key {
	k := NewKey(kind)
	k.Volume(v)
	return k.sum()
}

// ramp returns a compute that builds a recognizable nx×1×1 volume and
// counts its runs.
func ramp(nx int, aux int64, runs *atomic.Int64) func() (*volume.V3, int64, error) {
	return func() (*volume.V3, int64, error) {
		runs.Add(1)
		v := volume.New3(nx, 1, 1)
		for i := range v.Data {
			v.Data[i] = float64(i)
		}
		return v, aux, nil
	}
}

// A miss returns what compute built; every hit is a fresh copy of it
// with the same auxiliary number, and nothing a caller does to either
// changes the next hit.
func TestHitIsAFreshCopy(t *testing.T) {
	reset()
	var runs atomic.Int64
	key := keyOf(Text, 1)
	first, aux, err := do(Text, key, ramp(5, 42, &runs))
	if err != nil || aux != 42 || first.NX != 5 {
		t.Fatalf("miss: %v aux %d shape %d", err, aux, first.NX)
	}
	for i := range first.Data {
		first.Data[i] = -1
	}
	for round := 0; round < 2; round++ {
		hit, aux, err := do(Text, key, ramp(5, 42, &runs))
		if err != nil || aux != 42 || hit.NX != 5 || hit.NY != 1 || hit.NZ != 1 {
			t.Fatalf("hit: %v aux %d shape %d×%d×%d", err, aux, hit.NX, hit.NY, hit.NZ)
		}
		for i, x := range hit.Data {
			if x != float64(i) {
				t.Fatalf("round %d: voxel %d = %g: scribbling on an earlier result reached the table", round, i, x)
			}
			hit.Data[i] = -2
		}
	}
	if runs.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", runs.Load())
	}
	if s := Snapshot().Kinds[Text]; s.Hits != 2 || s.Misses != 1 || s.Bytes != 40 {
		t.Fatalf("text counters %+v, want 2 hits, 1 miss, 40 bytes", s)
	}
}

// What makes two inputs different keys: the kind, every raw bit of
// every voxel, the shape, and nil against any volume.
func TestKeysAreContent(t *testing.T) {
	zero, negZero := volume.New3(2, 1, 1), volume.New3(2, 1, 1)
	negZero.Data[1] = math.Copysign(0, -1)
	nan1, nan2 := volume.New3(2, 1, 1), volume.New3(2, 1, 1)
	nan1.Data[0] = math.Float64frombits(0x7ff8000000000001)
	nan2.Data[0] = math.Float64frombits(0x7ff8000000000002)
	reshaped := &volume.V3{NX: 1, NY: 2, NZ: 1, Data: zero.Data}

	keys := map[Key]string{}
	add := func(name string, k Key) {
		t.Helper()
		if other, dup := keys[k]; dup {
			t.Errorf("%s and %s have the same key", name, other)
		}
		keys[k] = name
	}
	add("zeros", volumeKey(Text, zero))
	add("a negative zero", volumeKey(Text, negZero))
	add("NaN payload 1", volumeKey(Text, nan1))
	add("NaN payload 2", volumeKey(Text, nan2))
	add("same data, other shape", volumeKey(Text, reshaped))
	add("nil", volumeKey(Text, nil))
	add("zeros under another kind", volumeKey(Fit, zero))
	if volumeKey(Text, zero) != volumeKey(Text, zero.Clone()) {
		t.Error("equal content at two addresses has two keys")
	}
}

// Eight goroutines on one cold key run the computation once; the seven
// that waited count as hits and get copies of their own.
func TestSingleFlight(t *testing.T) {
	reset()
	const callers = 8
	var runs atomic.Int64
	started, release := make(chan struct{}), make(chan struct{})
	compute := func() (*volume.V3, int64, error) {
		close(started) // a second run would panic here
		<-release
		return ramp(3, 7, &runs)()
	}
	key := keyOf(Fit, 9)
	outs := make([]*volume.V3, callers)
	var wg sync.WaitGroup
	call := func(i int) {
		defer wg.Done()
		out, aux, err := do(Fit, key, compute)
		if err != nil || aux != 7 {
			t.Errorf("caller %d: %v aux %d", i, err, aux)
		}
		outs[i] = out
	}
	wg.Add(1)
	go call(0)
	<-started
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go call(i)
	}
	// The waiters are counted before they block, so this returns once
	// all seven have found the entry.
	for Snapshot().Kinds[Fit].Hits < callers-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", runs.Load())
	}
	if s := Snapshot().Kinds[Fit]; s.Misses != 1 || s.Hits != callers-1 {
		t.Fatalf("fit counters %+v, want 1 miss and %d hits", s, callers-1)
	}
	for i, a := range outs {
		for j, b := range outs[:i] {
			if &a.Data[0] == &b.Data[0] {
				t.Fatalf("callers %d and %d share a buffer", i, j)
			}
		}
	}
}

// An error is returned to its caller and never stored; a panic leaves
// the key free too, and neither leaves a waiter hanging.
func TestFailuresAreNotStored(t *testing.T) {
	reset()
	boom := errors.New("boom")
	key := keyOf(Text, 3)
	if _, _, err := do(Text, key, func() (*volume.V3, int64, error) { return nil, 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("error %v, want boom", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the panic in compute was swallowed")
			}
		}()
		do(Text, key, func() (*volume.V3, int64, error) { panic("kernel bug") })
	}()
	if s := Snapshot(); s.Bytes != 0 || s.Kinds[Text].Misses != 2 {
		t.Fatalf("after two failures: %+v", s)
	}
	var runs atomic.Int64
	if _, _, err := do(Text, key, ramp(2, 0, &runs)); err != nil || runs.Load() != 1 {
		t.Fatalf("the key did not recover: %v, %d runs", err, runs.Load())
	}

	// A waiter whose leader fails computes for itself.
	key2 := keyOf(Text, 4)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan error)
	go func() {
		_, _, err := do(Text, key2, func() (*volume.V3, int64, error) {
			close(started)
			<-release
			return nil, 0, boom
		})
		done <- err
	}()
	<-started
	waiter := make(chan error)
	go func() {
		_, _, err := do(Text, key2, ramp(2, 0, &runs))
		waiter <- err
	}()
	for Snapshot().Kinds[Text].Hits < 1 {
		runtime.Gosched()
	}
	close(release)
	if err := <-done; !errors.Is(err, boom) {
		t.Fatalf("leader: %v, want boom", err)
	}
	if err := <-waiter; err != nil || runs.Load() != 2 {
		t.Fatalf("waiter: %v after %d runs, want its own result", err, runs.Load())
	}
}

// All kinds draw on one budget: an insert that would pass it drops the
// whole table, whatever kind filled it, bytes never pass the bound, and
// answers stay right across the reset. An entry larger than the budget
// is served and not kept.
func TestOneBudgetOneReset(t *testing.T) {
	reset()
	defer reset()          // do not leave tens of MB behind for the other tests
	const voxels = 1 << 20 // 8 MiB a volume, so the ninth insert cannot fit
	var runs atomic.Int64
	kinds := Kinds()
	for i := 0; i < 11; i++ {
		kind := kinds[i%len(kinds)]
		out, _, err := do(kind, keyOf(kind, uint64(i)), ramp(voxels, 0, &runs))
		if err != nil || out.Data[voxels-1] != voxels-1 {
			t.Fatalf("insert %d: %v", i, err)
		}
		s := Snapshot()
		var perKind int64
		for _, k := range s.Kinds {
			perKind += k.Bytes
		}
		if s.Bytes <= 0 || s.Bytes > budget || perKind != s.Bytes {
			t.Fatalf("insert %d: table holds %d bytes (%d by kind), budget %d", i, s.Bytes, perKind, budget)
		}
	}
	s := Snapshot()
	if s.Resets != 1 || s.Bytes != 3*8*voxels {
		t.Fatalf("after 11 inserts of 8 MiB: %+v, want one reset and three entries held", s)
	}
	// Inserts 8–10 stayed; 0–7 went with the reset, whatever their kind.
	for _, i := range []int{8, 9, 10, 0, 1, 2} {
		kind := kinds[i%len(kinds)]
		before := runs.Load()
		if _, _, err := do(kind, keyOf(kind, uint64(i)), ramp(voxels, 0, &runs)); err != nil {
			t.Fatal(err)
		}
		if recomputed := runs.Load() != before; recomputed != (i < 8) {
			t.Fatalf("key %d (%s): recomputed = %v after the reset", i, kind, recomputed)
		}
	}

	// Untouched, so the pages are never resident.
	reset()
	huge := func() (*volume.V3, int64, error) { return volume.New3(budget/8+1, 1, 1), 0, nil }
	for round := 0; round < 2; round++ {
		if _, _, err := do(Fit, keyOf(Fit, 99), huge); err != nil {
			t.Fatal(err)
		}
	}
	if s := Snapshot(); s.Bytes != 0 || s.Kinds[Fit].Misses != 2 || s.Resets != 0 {
		t.Fatalf("an entry over the budget was kept: %+v", s)
	}
}

// floatsByWord is Hasher.Floats as it was when every value went
// through the chunk buffer one word at a time, kept verbatim as the
// oracle for the form that hands the digest the slice's own bytes.
func (k *Hasher) floatsByWord(xs []float64) {
	k.U64(uint64(len(xs)))
	for _, x := range xs {
		k.U64(math.Float64bits(x))
	}
}

// floatsKeys returns the key of lead words, then xs, then one more
// word, by Floats and by its oracle.
func floatsKeys(lead int, xs []float64) (got, want Key) {
	a, b := NewKey(Text), NewKey(Text)
	for i := 0; i < lead; i++ {
		a.U64(uint64(i))
		b.U64(uint64(i))
	}
	a.Floats(xs)
	b.floatsByWord(xs)
	a.U64(7)
	b.U64(7)
	return a.sum(), b.sum()
}

func littleEndianHost(t testing.TB) {
	var probe [2]byte
	binary.NativeEndian.PutUint16(probe[:], 1)
	if probe[0] != 1 {
		t.Skip("the word-at-a-time oracle writes little-endian words; this host's memory is not")
	}
}

// Floats covers the same content as the word-at-a-time form, byte for
// byte, wherever the slice starts and ends in the chunk buffer (512
// words) and wherever it starts in its backing array.
func TestFloatsMatchesWordAtATime(t *testing.T) {
	littleEndianHost(t)
	backing := make([]float64, 1100)
	for i := range backing {
		backing[i] = math.Float64frombits(0x9e3779b97f4a7c15 * uint64(i+1)) // NaNs, negatives, denormals
	}
	backing[3] = math.Copysign(0, -1)
	for _, n := range []int{0, 1, 2, 509, 510, 511, 512, 513, 1024, 1100} {
		for _, lead := range []int{0, 1, 300, 510} {
			for _, from := range []int{0, 1, 3} {
				if from > n {
					continue
				}
				xs := backing[from:n]
				if got, want := floatsKeys(lead, xs); got != want {
					t.Errorf("%d values from offset %d after %d words: key %x, word at a time %x", len(xs), from, lead, got[:4], want[:4])
				}
			}
		}
	}
	if got, want := floatsKeys(0, nil); got != want {
		t.Errorf("nil slice: key %x, word at a time %x", got[:4], want[:4])
	}
}

// The same differential on arbitrary bit patterns.
func FuzzHasherFloats(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f}, uint16(510))
	f.Add(make([]byte, 8*513), uint16(1))
	f.Fuzz(func(t *testing.T, raw []byte, lead uint16) {
		littleEndianHost(t)
		xs := make([]float64, len(raw)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		if got, want := floatsKeys(int(lead%1024), xs); got != want {
			t.Fatalf("%d values after %d words: key %x, word at a time %x", len(xs), lead%1024, got, want)
		}
		// Bytes takes any length, not whole words only.
		if got, want := bytesKey(int(lead%1024), raw, (*Hasher).Bytes), bytesKey(int(lead%1024), raw, (*Hasher).bytesByWord); got != want {
			t.Fatalf("%d bytes after %d words: key %x, word at a time %x", len(raw), lead%1024, got, want)
		}
	})
}

// A Table of its own hands every caller the one stored value, counts
// under its own kinds, and Each lists what is held and not what is
// still being computed.
func TestTableSharesTheStoredValue(t *testing.T) {
	tab := NewTable[string, *int](2)
	build := func() (*int, int64, error) { return new(int), 8, nil }
	a, err := tab.Do(1, "a", build)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := tab.Do(1, "a", build); again != a {
		t.Fatalf("second call got %p, first %p", again, a)
	}
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tab.Do(0, "b", func() (*int, int64, error) {
			close(started)
			<-release
			return new(int), 8, nil
		})
	}()
	<-started
	held := map[string]*int{}
	tab.Each(func(k string, v *int) { held[k] = v })
	if len(held) != 1 || held["a"] != a {
		t.Errorf("with b in flight Each listed %v, want a alone", held)
	}
	close(release)
	<-done
	if s := tab.Snapshot(); s.Bytes != 16 || s.Kinds[1] != (KindStats{Hits: 1, Misses: 1, Bytes: 8}) || s.Kinds[0].Misses != 1 {
		t.Errorf("counters %+v", s)
	}
	if s := Snapshot(); len(s.Kinds) != int(numKinds) {
		t.Errorf("the stage table counts %d kinds, want %d", len(s.Kinds), numKinds)
	}
}

// bytesByWord is Hasher.Bytes with every whole word going through the
// chunk buffer and the tail straight to the digest: the oracle for the
// form that hands the digest the slice in one piece.
func (k *Hasher) bytesByWord(b []byte) {
	k.U64(uint64(len(b)))
	for ; len(b) >= 8; b = b[8:] {
		k.U64(binary.LittleEndian.Uint64(b))
	}
	k.flush()
	k.h.Write(b)
}

// bytesKey returns the key of lead words, then b as add adds it, then
// one more word.
func bytesKey(lead int, b []byte, add func(*Hasher, []byte)) Key {
	k := NewKey(Decode)
	for i := 0; i < lead; i++ {
		k.U64(uint64(i))
	}
	add(k, b)
	k.U64(7)
	return k.sum()
}

// Bytes, and Bools over the same memory, cover the same content as the
// word-at-a-time form at every length around a word and around the
// chunk buffer.
func TestBytesMatchesWordAtATime(t *testing.T) {
	backing := make([]byte, 4200)
	for i := range backing {
		backing[i] = byte(i % 3 % 2) // every byte a valid bool
	}
	asBools := func(k *Hasher, b []byte) {
		k.Bools(unsafe.Slice((*bool)(unsafe.Pointer(unsafe.SliceData(b))), len(b)))
	}
	for _, n := range []int{0, 1, 7, 8, 9, 4087, 4088, 4096, 4097, 4200} {
		for _, lead := range []int{0, 1, 510, 511} {
			for _, from := range []int{0, 1, 5} {
				if from > n {
					continue
				}
				b := backing[from:n]
				want := bytesKey(lead, b, (*Hasher).bytesByWord)
				if got := bytesKey(lead, b, (*Hasher).Bytes); got != want {
					t.Errorf("%d bytes from offset %d after %d words: Bytes %x, word at a time %x", len(b), from, lead, got[:4], want[:4])
				}
				if got := bytesKey(lead, b, asBools); got != want {
					t.Errorf("%d bools from offset %d after %d words: Bools %x, word at a time %x", len(b), from, lead, got[:4], want[:4])
				}
			}
		}
	}
}

// A Shared value is the stored pointer for every caller, known to
// Origin by identity while the table holds it and to nothing else: not
// a copy of it, not a value built elsewhere, and not the same pointer
// once a reset has dropped its entry. Lineage and content never share a
// key.
func TestSharedLineage(t *testing.T) {
	reset()
	defer reset()
	var runs atomic.Int64
	build := func() (any, int64, error) {
		runs.Add(1)
		return &[2]float64{1, 2}, 16, nil
	}
	key := func() *Hasher {
		k := NewKey(Decode)
		k.U64(11)
		return k
	}
	first, err := key().Shared(build)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := key().Shared(build); again != first || runs.Load() != 1 {
		t.Fatalf("second call got %p after %d runs, first %p", again, runs.Load(), first)
	}
	var held []any
	EachShared(func(_ Key, v any) { held = append(held, v) })
	if len(held) != 1 || held[0] != first {
		t.Errorf("EachShared listed %v, want %p alone", held, first)
	}
	if s := Snapshot().Kinds[Decode]; s != (KindStats{Hits: 1, Misses: 1, Bytes: 16}) {
		t.Errorf("decode counters %+v", s)
	}

	// derived keys a value the way a downstream stage would.
	derived := func(v *[2]float64) (Key, bool) {
		k := NewKey(Calibrate)
		lineage := k.Origin(v)
		if !lineage {
			k.Floats(v[:])
		}
		return k.sum(), lineage
	}
	byLineage, ok := derived(first.(*[2]float64))
	if !ok {
		t.Fatal("a value the table holds has no lineage")
	}
	clone := *first.(*[2]float64)
	byContent, ok := derived(&clone)
	if ok || byContent == byLineage {
		t.Errorf("a copy: lineage %v, key equal to the original's %v", ok, byContent == byLineage)
	}
	clone[1] = 3
	if changed, _ := derived(&clone); changed == byContent {
		t.Error("a copy with one value changed has the copy's key")
	}
	reset()
	if after, ok := derived(first.(*[2]float64)); ok || after != byContent {
		t.Errorf("after a reset: lineage %v, content key %v", ok, after == byContent)
	}

	// An error is returned with nothing stored and nothing indexed.
	boom := errors.New("boom")
	for round := 0; round < 2; round++ {
		k := NewKey(Decode)
		k.U64(12)
		if v, err := k.Shared(func() (any, int64, error) { return nil, 0, boom }); !errors.Is(err, boom) || v != nil {
			t.Fatalf("round %d: %v, %v, want nil and boom", round, v, err)
		}
	}
	if s := Snapshot(); s.Bytes != 0 || s.Kinds[Decode].Misses != 2 {
		t.Errorf("after two failures: %+v", s)
	}
}
