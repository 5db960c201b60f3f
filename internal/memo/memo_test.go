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

// reset empties both tables and zeroes their counters, so a test can
// count from nothing whatever ran before it.
func reset() {
	for _, t := range []*Table[Key, any]{stages, values} {
		t.mu.Lock()
		t.entries = make(map[Key]*entry[any])
		t.known = nil
		t.stats = Stats{Kinds: make([]KindStats, numKinds)}
		for k := range t.hits {
			t.hits[k].Store(0)
		}
		t.mu.Unlock()
	}
}

func volumeKey(kind Kind, v *volume.V3) Key {
	k := NewKey(kind)
	k.Volume(v)
	return k.sum()
}

// ramp returns a compute that builds a recognizable nx×1×1 volume,
// accounts it at its size and counts its runs.
func ramp(nx int, runs *atomic.Int64) func() (any, int64, error) {
	return func() (any, int64, error) {
		runs.Add(1)
		v := volume.New3(nx, 1, 1)
		for i := range v.Data {
			v.Data[i] = float64(i)
		}
		return v, v.Bytes(), nil
	}
}

// shared ends a key of kind and the words, and runs compute through it.
func shared(kind Kind, compute func() (any, int64, error), words ...uint64) (*volume.V3, error) {
	k := NewKey(kind)
	for _, w := range words {
		k.U64(w)
	}
	v, err := k.Shared(compute)
	out, _ := v.(*volume.V3)
	return out, err
}

// A miss returns what compute built and every hit the same pointer, in
// whichever table the kind lives.
func TestHitIsTheHeldValue(t *testing.T) {
	reset()
	defer reset()
	for _, kind := range []Kind{Text, Slab} {
		var runs atomic.Int64
		first, err := shared(kind, ramp(5, &runs), 1)
		if err != nil || first.NX != 5 {
			t.Fatalf("%s miss: %v, %+v", kind, err, first)
		}
		for round := 0; round < 2; round++ {
			if hit, err := shared(kind, ramp(5, &runs), 1); err != nil || hit != first {
				t.Fatalf("%s round %d: %p (%v), the miss returned %p", kind, round, hit, err, first)
			}
		}
		if runs.Load() != 1 {
			t.Fatalf("%s: compute ran %d times, want 1", kind, runs.Load())
		}
		if s := Snapshot().Kinds[kind]; s != (KindStats{Hits: 2, Misses: 1, Bytes: 40}) {
			t.Fatalf("%s counters %+v, want 2 hits, 1 miss, 40 bytes", kind, s)
		}
	}
	if stages.Snapshot().Bytes != 40 || values.Snapshot().Bytes != 40 {
		t.Fatal("text and slab are not held in a table each")
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
// that waited count as hits and get the one value.
func TestSingleFlight(t *testing.T) {
	reset()
	const callers = 8
	var runs atomic.Int64
	started, release := make(chan struct{}), make(chan struct{})
	compute := func() (any, int64, error) {
		close(started) // a second run would panic here
		<-release
		return ramp(3, &runs)()
	}
	outs := make([]*volume.V3, callers)
	var wg sync.WaitGroup
	call := func(i int) {
		defer wg.Done()
		out, err := shared(Fit, compute, 9)
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
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
	for i, out := range outs {
		if out == nil || out != outs[0] {
			t.Fatalf("caller %d got %p, caller 0 %p", i, out, outs[0])
		}
	}
}

// An error is returned to its caller and never stored; a panic leaves
// the key free too, and neither leaves a waiter hanging.
func TestFailuresAreNotStored(t *testing.T) {
	reset()
	boom := errors.New("boom")
	if _, err := shared(Text, func() (any, int64, error) { return nil, 0, boom }, 3); !errors.Is(err, boom) {
		t.Fatalf("error %v, want boom", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the panic in compute was swallowed")
			}
		}()
		shared(Text, func() (any, int64, error) { panic("kernel bug") }, 3)
	}()
	if s := Snapshot(); s.Bytes != 0 || s.Kinds[Text].Misses != 2 {
		t.Fatalf("after two failures: %+v", s)
	}
	var runs atomic.Int64
	if _, err := shared(Text, ramp(2, &runs), 3); err != nil || runs.Load() != 1 {
		t.Fatalf("the key did not recover: %v, %d runs", err, runs.Load())
	}

	// A waiter whose leader fails computes for itself.
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan error)
	go func() {
		_, err := shared(Text, func() (any, int64, error) {
			close(started)
			<-release
			return nil, 0, boom
		}, 4)
		done <- err
	}()
	<-started
	waiter := make(chan error)
	go func() {
		_, err := shared(Text, ramp(2, &runs), 4)
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

// All the stage kinds draw on one budget: an insert that would pass it
// drops the whole table, whatever kind filled it, bytes never pass the
// bound, and answers stay right across the reset. An entry larger than
// the budget is served and not kept.
func TestOneBudgetOneReset(t *testing.T) {
	reset()
	defer reset()          // do not leave tens of MB behind for the other tests
	const voxels = 1 << 20 // 8 MiB a volume, so the ninth insert cannot fit
	var runs atomic.Int64
	kinds := Kinds()[:Load]
	for i := 0; i < 11; i++ {
		kind := kinds[i%len(kinds)]
		out, err := shared(kind, ramp(voxels, &runs), uint64(i))
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
		if _, err := shared(kind, ramp(voxels, &runs), uint64(i)); err != nil {
			t.Fatal(err)
		}
		if recomputed := runs.Load() != before; recomputed != (i < 8) {
			t.Fatalf("key %d (%s): recomputed = %v after the reset", i, kind, recomputed)
		}
	}

	// Untouched, so the pages are never resident.
	reset()
	huge := func() (any, int64, error) { v := volume.New3(budget/8+1, 1, 1); return v, v.Bytes(), nil }
	for round := 0; round < 2; round++ {
		if _, err := shared(Fit, huge, 99); err != nil {
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

// carrier is a held value with a volume inside and a by-product beside
// it, the way a text round trip is held.
type carrier struct{ v *volume.V3 }

func (c *carrier) Volume() *volume.V3 { return c.v }

// Every volume a table holds carries its content digest from when it is
// kept — a volume, each volume of a series, the volume a value carries —
// so its digest is read and not hashed, and is the digest its voxels
// hash to. A copy is hashed, a copy sharing the held Data included; a
// copy with one voxel changed has another digest; and after a reset the
// held volume still carries its digest, which is still its content's.
func TestDigestIsIndexedOncePerHeldValue(t *testing.T) {
	reset()
	defer reset()
	fresh := func(x float64) *volume.V3 {
		v := volume.New3(2, 2, 1)
		v.Data[1] = x
		return v
	}
	one := fresh(1)
	series := volume.New4([]*volume.V3{fresh(2), fresh(3)})
	inside := &carrier{fresh(4)}
	for i, v := range []any{one, series, inside} {
		k := NewKey(Load)
		k.U64(uint64(i))
		if _, err := k.Shared(func() (any, int64, error) { return v, 32, nil }); err != nil {
			t.Fatal(err)
		}
	}
	held := []*volume.V3{one, series.Vols[0], series.Vols[1], inside.v}
	digests := func(vs []*volume.V3) (ds []Key, indexed, hashed uint64) {
		before := Snapshot()
		for _, v := range vs {
			ds = append(ds, Digest(v))
		}
		after := Snapshot()
		return ds, after.IndexedDigests - before.IndexedDigests, after.ContentDigests - before.ContentDigests
	}
	byIndex, indexed, hashed := digests(held)
	if indexed != 4 || hashed != 0 {
		t.Fatalf("held volumes: %d digests read from the index and %d hashed, want 4 and 0", indexed, hashed)
	}
	var copies []*volume.V3
	for i, v := range held {
		if i%2 == 0 {
			copies = append(copies, v.Clone())
		} else {
			copies = append(copies, &volume.V3{NX: v.NX, NY: v.NY, NZ: v.NZ, Data: v.Data})
		}
	}
	byContent, indexed, hashed := digests(copies)
	if indexed != 0 || hashed != 4 {
		t.Fatalf("copies: %d digests read from the index and %d hashed, want 0 and 4", indexed, hashed)
	}
	for i := range held {
		if byIndex[i] != byContent[i] {
			t.Errorf("volume %d: the index and the voxels give two digests", i)
		}
		for j := range held[:i] {
			if byIndex[i] == byIndex[j] {
				t.Errorf("volumes %d and %d differ and share a digest", i, j)
			}
		}
	}
	changed := one.Clone()
	changed.Data[3] = math.Copysign(0, -1)
	if Digest(changed) == byIndex[0] {
		t.Error("a copy with one voxel changed has the original's digest")
	}
	reset()
	if again, indexed, _ := digests(held); indexed != 4 || again[0] != byIndex[0] || again[3] != byIndex[3] {
		t.Errorf("after a reset: %d carried, digests kept: %v", indexed, again[0] == byIndex[0] && again[3] == byIndex[3])
	}
}

// The values table has a budget of its own: filling it past the bound
// resets it and leaves the stage table whole.
func TestValuesOverflowKeepsTheStages(t *testing.T) {
	reset()
	defer reset()
	var runs atomic.Int64
	stage, err := shared(NLMeans, ramp(4, &runs), 1)
	if err != nil {
		t.Fatal(err)
	}
	const voxels = 1 << 20 // 8 MiB, so the ninth cannot join the first eight
	for i := uint64(0); i < 12; i++ {
		if _, err := shared(Slab, ramp(voxels, &runs), i); err != nil {
			t.Fatal(err)
		}
	}
	if s := values.Snapshot(); s.Resets != 1 || s.Bytes > budget {
		t.Fatalf("values after 96 MiB of slabs: %+v, want one reset", s)
	}
	if s := stages.Snapshot(); s.Resets != 0 || s.Bytes != stage.Bytes() {
		t.Fatalf("stages after the values' reset: %+v", s)
	}
	before := runs.Load()
	if again, _ := shared(NLMeans, ramp(4, &runs), 1); again != stage || runs.Load() != before {
		t.Error("the stage entry was dropped with the values")
	}
	if d := stage.Digest(); d == nil || *d != contentDigest(stage) {
		t.Error("the stage value lost its digest with the values")
	}
}

// The differential on keys: a volume keyed through the digest it
// carries (held) and the same bits keyed through its content (a copy)
// are one key, whatever the bits — negative zeros and NaN payloads
// included — and the shape.
func FuzzHasherVolume(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f}, uint8(2))
	f.Add(make([]byte, 8*24), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, nx uint8) {
		n := len(raw) / 8
		if n == 0 || nx == 0 || n%int(nx) != 0 {
			return
		}
		v := volume.New3(int(nx), n/int(nx), 1)
		for i := range v.Data {
			v.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		k := NewKey(Slab)
		k.Volume(v)
		held, err := k.Shared(func() (any, int64, error) { return v, v.Bytes(), nil })
		if err != nil {
			t.Fatal(err)
		}
		// v itself, or an earlier input with the same content.
		if held.(*volume.V3).Digest() == nil {
			t.Fatal("the value Shared returned carries no digest")
		}
		if a, b := volumeKey(Fit, held.(*volume.V3)), volumeKey(Fit, v.Clone()); a != b {
			t.Fatalf("%d×%d: key %x through the digest, %x through the content", v.NX, v.NY, a[:4], b[:4])
		}
	})
}

// A warm hit is a map lookup: the pooled Hasher, a digest the volume
// carries, a shared read lock and an atomic count allocate nothing.
func TestWarmSharedHitAllocatesNothing(t *testing.T) {
	if !poolRetains {
		t.Skip("sync.Pool drops items under the race detector")
	}
	reset()
	defer reset()
	v := volume.New3(4, 4, 2)
	runs := 0
	hit := func() {
		k := NewKey(Slab)
		k.U64(7)
		k.Volume(v)
		out, err := k.Shared(func() (any, int64, error) { runs++; return v, v.Bytes(), nil })
		if err != nil || out != v {
			t.Fatalf("Shared returned %p, %v", out, err)
		}
	}
	hit()
	if n := testing.AllocsPerRun(100, hit); n != 0 || runs != 1 {
		t.Fatalf("a warm hit allocates %v times and compute ran %d times, want 0 and 1", n, runs)
	}
}

// One table under concurrent hits, claims, failed and panicking
// computes and budget resets (every third large value drops the table):
// every caller gets its key's value or its key's failure, every call is
// one hit or one miss, and the table stays within its budget. Run it
// with -race at GOMAXPROCS=8.
func TestTableStress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const workers, calls, keys = 8, 3000, 48
	tab := NewTable[int, *int](2)
	failed := errors.New("failed")
	compute := func(k int) func() (*int, int64, error) {
		return func() (*int, int64, error) {
			switch k % 4 {
			case 0:
				return nil, 0, failed
			case 1:
				panic(failed)
			case 2:
				return &k, budget / 3, nil
			}
			return &k, 1, nil
		}
	}
	var wg sync.WaitGroup
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() { // readers beside the traffic
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			tab.Each(func(k int, v *int) {
				if *v != k {
					t.Errorf("Each: key %d holds %d", k, *v)
				}
			})
			if s := tab.Snapshot(); s.Bytes > budget {
				t.Errorf("the table holds %d bytes", s.Bytes)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				k := (i*7 + w*13) % keys
				func() {
					defer func() {
						if r := recover(); r != nil && k%4 != 1 {
							t.Errorf("key %d panicked: %v", k, r)
						}
					}()
					v, err := tab.Do(k%2, k, compute(k))
					switch k % 4 {
					case 0, 1:
						if err != failed {
							t.Errorf("key %d: got %v, %v, want its failure", k, v, err)
						}
					default:
						if err != nil || v == nil || *v != k {
							t.Errorf("key %d: got %v, %v", k, v, err)
						}
					}
				}()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-stopped
	s := tab.Snapshot()
	var total uint64
	for _, k := range s.Kinds {
		total += k.Hits + k.Misses
	}
	if total != workers*calls || s.Resets == 0 || s.Bytes > budget {
		t.Fatalf("%d calls counted of %d, %d resets, %d bytes held", total, workers*calls, s.Resets, s.Bytes)
	}
}
