package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"imagebench/internal/astro"
	"imagebench/internal/engine"
	"imagebench/internal/fits"
	"imagebench/internal/imaging"
	"imagebench/internal/neuro"
	"imagebench/internal/nifti"
	"imagebench/internal/npy"
	"imagebench/internal/objstore"
	"imagebench/internal/skymap"
	"imagebench/internal/synth"
	"imagebench/internal/volume"
)

// storeDigest is everything a reader of a staged dataset can see: every
// object's key, length, content and model size, in key order.
func storeDigest(st *objstore.Store) string {
	h := sha256.New()
	for _, key := range st.List("") {
		obj, _ := st.Get(key)
		fmt.Fprintf(h, "%q %d %x %d\n", obj.Key, len(obj.Data), sha256.Sum256(obj.Data), obj.ModelBytes)
	}
	return fmt.Sprintf("%d objects %x", st.Len(), h.Sum(nil))
}

// eachInput calls fn on every workload the process holds, waiting for
// one still being built; one whose build failed is skipped.
func eachInput(fn func(cfg, w any)) {
	inputsMu.Lock()
	held := maps.Clone(inputs)
	inputsMu.Unlock()
	for cfg, in := range held {
		if w, err := in.get(); err == nil {
			fn(cfg, w)
		}
	}
}

// wantInputsUnwritten compares every shared input the process holds
// with one the pure builder makes now from the same config: no engine,
// fault scenario or tuning experiment that ran since it was built wrote
// to it or to an object of its store.
func wantInputsUnwritten(t *testing.T) {
	t.Helper()
	type held struct{ cfg, w any }
	var all []held
	eachInput(func(cfg, w any) { all = append(all, held{cfg, w}) })
	if len(all) == 0 {
		t.Fatal("no shared input is held")
	}
	// rest is the workload with its Store field cleared.
	same := func(cfg any, store, freshStore *objstore.Store, rest, freshRest any) {
		t.Helper()
		if got, want := storeDigest(store), storeDigest(freshStore); got != want {
			t.Errorf("%+v: the shared store reads %s, a fresh one %s", cfg, got, want)
		}
		if !reflect.DeepEqual(rest, freshRest) {
			t.Errorf("%+v: the shared workload is %+v, a fresh one %+v", cfg, rest, freshRest)
		}
	}
	for _, h := range all {
		switch w := h.w.(type) {
		case *neuro.Workload:
			fresh, err := neuro.NewWorkloadCfg(h.cfg.(synth.NeuroConfig))
			if err != nil {
				t.Fatal(err)
			}
			a, b := *w, *fresh
			a.Store, b.Store = nil, nil
			same(h.cfg, w.Store, fresh.Store, a, b)
		case *astro.Workload:
			fresh, err := astro.NewWorkloadCfg(h.cfg.(synth.AstroConfig))
			if err != nil {
				t.Fatal(err)
			}
			a, b := *w, *fresh
			a.Store, b.Store = nil, nil
			same(h.cfg, w.Store, fresh.Store, a, b)
		default:
			t.Errorf("%+v: a shared input of type %T", h.cfg, h.w)
		}
	}
}

// decodeDigest is everything a reader can see of a decoded staged
// object: an exposure's placement, mask and planes, a volume's or a
// series' shapes and voxels, bit for bit.
func decodeDigest(t *testing.T, v any) string {
	t.Helper()
	h := sha256.New()
	planes := func(ims ...*imaging.Image) {
		for _, im := range ims {
			fmt.Fprintf(h, "%d×%d ", im.W, im.H)
			if err := binary.Write(h, binary.LittleEndian, im.Pix); err != nil {
				t.Error(err)
			}
		}
	}
	vols := func(vs ...*volume.V3) {
		for _, v := range vs {
			fmt.Fprintf(h, "%d×%d×%d ", v.NX, v.NY, v.NZ)
			if err := binary.Write(h, binary.LittleEndian, v.Data); err != nil {
				t.Error(err)
			}
		}
	}
	switch v := v.(type) {
	case *skymap.Exposure:
		fmt.Fprintf(h, "exposure %d %d %d %d %x ", v.Visit, v.Sensor, v.X0, v.Y0, v.Mask)
		planes(v.Flux, v.Var)
	case *volume.V3:
		vols(v)
	case *volume.V4:
		vols(v.Vols...)
	default:
		t.Errorf("a decoded object of type %T", v)
	}
	return fmt.Sprintf("%T %x", v, h.Sum(nil))
}

// stagedDecoders decodes a staged object by its key's prefix, the way
// the engines read it.
var stagedDecoders = map[string]func([]byte) (any, error){
	"astro/fits/": func(b []byte) (any, error) { return fits.DecodeExposure(b) },
	"neuro/npy/":  func(b []byte) (any, error) { return npy.Decode(b) },
	"neuro/nii/":  func(b []byte) (any, error) { return nifti.Decode4(b) },
}

// eachDecode calls fn on every staged object of workload w with the
// value the object holds, nil if nothing has decoded it, and a fresh
// decode of its bytes. Asking decodes an object that holds nothing, and
// it holds that value from then on, as a reader would have left it.
func eachDecode(t *testing.T, w any, fn func(key string, held, fresh any)) {
	t.Helper()
	var st *objstore.Store
	switch w := w.(type) {
	case *neuro.Workload:
		st = w.Store
	case *astro.Workload:
		st = w.Store
	default:
		t.Fatalf("a workload of type %T", w)
	}
	for prefix, decode := range stagedDecoders {
		for _, key := range st.List(prefix) {
			obj, _ := st.Get(key)
			fresh, err := decode(obj.Data)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			ran := false
			held, err := obj.Decoded(func(b []byte) (any, error) { ran = true; return decode(b) })
			if err != nil {
				t.Fatalf("%s: the held decode failed: %v", key, err)
			}
			if ran {
				held = nil
			}
			fn(key, held, fresh)
		}
	}
}

// wantDecodesUnwritten compares every decode an object of a shared
// input holds (objstore.Object.Decoded) with a fresh decode of the
// object's bytes: whatever read a held exposure or volume since it was
// decoded only read it.
func wantDecodesUnwritten(t *testing.T) {
	t.Helper()
	compared := 0
	eachInput(func(_, w any) {
		eachDecode(t, w, func(key string, held, fresh any) {
			if held == nil {
				return // nothing read it
			}
			compared++
			if decodeDigest(t, held) != decodeDigest(t, fresh) {
				t.Errorf("%s: the held decode differs from a fresh one", key)
			}
		})
	})
	if compared == 0 {
		t.Error("no object of a shared input holds a decode: nothing was compared")
	}
}

// unseenNX numbers the configs these tests make up, -count=N included.
var unseenNX atomic.Int64

// unseenProfile returns a quick profile whose neuro geometry no
// experiment and no other test asks for.
func unseenProfile() Profile {
	p := Quick()
	p.NeuroNX = 20 + int(unseenNX.Add(1))
	return p
}

// Eight goroutines that ask for one config get one workload, built
// once; another config is another workload.
func TestSharedInputIsBuiltOnce(t *testing.T) {
	p := unseenProfile()
	before := InputStats().Kinds[neuroInput]
	const callers = 8
	ws := make([]*neuro.Workload, callers)
	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := neuroWorkload(p, 2)
			if err != nil {
				t.Error(err)
			}
			ws[i] = w
		}(i)
	}
	wg.Wait()
	for i, w := range ws {
		if w == nil || w != ws[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p", i, w, ws[0])
		}
	}
	after := InputStats().Kinds[neuroInput]
	if after.Misses-before.Misses != 1 || after.Hits-before.Hits != callers-1 {
		t.Errorf("counters %+v → %+v, want 1 miss and %d hits", before, after, callers-1)
	}
	if held := after.Bytes - before.Bytes; held != storeBytes(ws[0].Store) || held == 0 {
		t.Errorf("the table accounts %d bytes for a store of %d", held, storeBytes(ws[0].Store))
	}
	if other, err := neuroWorkload(p, 1); err != nil || other == ws[0] || other.Subjects != 1 {
		t.Errorf("one subject under the same profile: %p (%v), two subjects %p", other, err, ws[0])
	}
}

// forgetInputs forgets every shared input when t ends, as a reset to
// stay in budget does: a test that plants inputs of its own type leaves
// none for a later pass over the table (go test -count) to meet.
func forgetInputs(t *testing.T) {
	t.Cleanup(func() {
		inputsMu.Lock()
		defer inputsMu.Unlock()
		clear(inputs)
		inputStats.Bytes = 0
		for k := range inputStats.Kinds {
			inputStats.Kinds[k].Bytes = 0
		}
	})
}

// A build that fails is returned to its caller and not kept: the next
// caller builds again, and what that one builds is kept.
func TestFailedInputBuildIsRetried(t *testing.T) {
	forgetInputs(t)
	if _, err := neuroWorkload(unseenProfile(), 0); err == nil {
		t.Fatal("a workload of no subjects was built")
	}
	type cfg struct{ id int64 }
	key := cfg{unseenNX.Add(1)}
	boom := errors.New("boom")
	builds := 0
	build := func(cfg) (*int, error) {
		if builds++; builds == 1 {
			return nil, boom
		}
		return new(int), nil
	}
	bytes := func(*int) int64 { return 8 }
	if w, err := sharedInput(neuroInput, key, build, bytes); !errors.Is(err, boom) || w != nil {
		t.Fatalf("first build: %p, %v, want boom", w, err)
	}
	second, err := sharedInput(neuroInput, key, build, bytes)
	if err != nil || second == nil {
		t.Fatalf("second build: %p, %v", second, err)
	}
	third, err := sharedInput(neuroInput, key, build, bytes)
	if err != nil || third != second || builds != 2 {
		t.Fatalf("third call: %p (%v) after %d builds, want %p and 2", third, err, builds, second)
	}
}

// A build that fails or panics reaches every caller that waited on it,
// as its error or as its panic, and nothing of it is kept: the next
// caller builds again.
func TestFailedInputBuildReachesItsWaiters(t *testing.T) {
	forgetInputs(t)
	type cfg struct{ id int64 }
	boom := errors.New("boom")
	bytes := func(*int) int64 { return 8 }
	for _, panics := range []bool{false, true} {
		key := cfg{unseenNX.Add(1)}
		started, release := make(chan struct{}), make(chan struct{})
		builds := 0
		build := func(cfg) (*int, error) {
			if builds++; builds > 1 {
				return new(int), nil
			}
			close(started)
			<-release
			if panics {
				panic(boom)
			}
			return nil, boom
		}
		type outcome struct {
			err      error
			panicked bool
		}
		call := func(out chan<- outcome) {
			var o outcome
			defer func() {
				if r := recover(); r != nil {
					o.err, _ = r.(error)
					o.panicked = true
				}
				out <- o
			}()
			_, o.err = sharedInput(neuroInput, key, build, bytes)
		}
		const callers = 4
		before := InputStats().Kinds[neuroInput]
		outs := make(chan outcome, callers)
		go call(outs)
		<-started
		for i := 1; i < callers; i++ {
			go call(outs)
		}
		// A waiter is counted before it blocks on the build.
		for InputStats().Kinds[neuroInput].Hits-before.Hits < callers-1 {
			runtime.Gosched()
		}
		close(release)
		for i := 0; i < callers; i++ {
			if o := <-outs; !errors.Is(o.err, boom) || o.panicked != panics {
				t.Errorf("panics=%v: a caller got %+v, want boom", panics, o)
			}
		}
		inputsMu.Lock()
		_, held := inputs[key]
		inputsMu.Unlock()
		if after := InputStats().Kinds[neuroInput]; held || after.Bytes != before.Bytes || after.Misses-before.Misses != 1 {
			t.Errorf("panics=%v: after the failed build: held %v, counters %+v → %+v", panics, held, before, after)
		}
		if w, err := sharedInput(neuroInput, key, build, bytes); err != nil || w == nil || builds != 2 {
			t.Errorf("panics=%v: the next caller got %p, %v after %d builds", panics, w, err, builds)
		}
	}
}

// Concurrent hits, builds, failed and panicking builds and budget
// resets: every caller gets
// its config's workload or its config's failure, every call is one hit
// or one miss, and the inputs stay within the budget. Run it with -race
// at GOMAXPROCS=8.
func TestSharedInputStress(t *testing.T) {
	forgetInputs(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const workers, calls, keys = 8, 3000, 48
	type cfg struct{ run, k int64 }
	run := unseenNX.Add(1)
	failed := errors.New("failed")
	build := func(c cfg) (*int64, error) {
		switch c.k % 4 {
		case 0:
			return nil, failed
		case 1:
			panic(failed)
		}
		return &c.k, nil
	}
	size := func(w *int64) int64 {
		if *w%4 == 2 {
			return inputBudget/3 + 1 // two fit, a third forgets them all
		}
		return 1
	}
	before := InputStats()
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() { // a reader beside the traffic
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if s := InputStats(); s.Bytes > inputBudget {
				t.Errorf("the inputs hold %d bytes", s.Bytes)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				k := int64((i*7 + w*13) % keys)
				func() {
					defer func() {
						if r := recover(); r != nil && (k%4 != 1 || r != failed) {
							t.Errorf("key %d panicked: %v", k, r)
						}
					}()
					v, err := sharedInput(int(k%2), cfg{run, k}, build, size)
					switch k % 4 {
					case 0:
						if err != failed {
							t.Errorf("key %d: got %v, %v, want its failure", k, v, err)
						}
					case 1:
						t.Errorf("key %d: got %v, %v, want its panic", k, v, err)
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
	after := InputStats()
	var calls0, calls1 uint64
	for k := range after.Kinds {
		calls0 += before.Kinds[k].Hits + before.Kinds[k].Misses
		calls1 += after.Kinds[k].Hits + after.Kinds[k].Misses
	}
	if calls1-calls0 != workers*calls || after.Resets == before.Resets || after.Bytes > inputBudget {
		t.Fatalf("%d calls counted of %d, %d resets, %d bytes held", calls1-calls0, workers*calls, after.Resets-before.Resets, after.Bytes)
	}
}

// Inputs past the budget make the table forget what it holds, not
// withdraw it: a workload a running cell still holds reads as before,
// the next caller for its config builds one of its own with the same
// content, and an input larger than the whole budget is served and
// never kept.
func TestInputBudgetOverflowKeepsHeldWorkloads(t *testing.T) {
	forgetInputs(t)
	p := unseenProfile()
	held, err := neuroWorkload(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	digest := storeDigest(held.Store)

	type cfg struct{ id int64 }
	build := func(cfg) (*int, error) { return new(int), nil }
	before := InputStats()
	// Each claims 40 MiB, so the second cannot join the first, whatever
	// else the table held.
	for i := 0; i < 2; i++ {
		if _, err := sharedInput(astroInput, cfg{unseenNX.Add(1)}, build, func(*int) int64 { return 40 << 20 }); err != nil {
			t.Fatal(err)
		}
	}
	after := InputStats()
	if after.Resets == before.Resets || after.Bytes != 40<<20 || after.Kinds[neuroInput].Bytes != 0 {
		t.Fatalf("after two 40 MiB inputs: %+v, was %+v; want a reset and one input held", after, before)
	}
	if got := storeDigest(held.Store); got != digest {
		t.Errorf("the held workload reads %s after the reset, %s before", got, digest)
	}
	spark, err := engine.Lookup("Spark")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := neuroEndToEnd(context.Background(), held, 2, spark); err != nil {
		t.Errorf("the held workload after the reset: %v", err)
	}
	again, err := neuroWorkload(p, 1)
	if err != nil || again == held || storeDigest(again.Store) != digest {
		t.Errorf("after the reset: %p (%v), want a new workload equal to %p", again, err, held)
	}

	huge := cfg{unseenNX.Add(1)}
	before = InputStats()
	var ws [2]*int
	for i := range ws {
		if ws[i], err = sharedInput(astroInput, huge, build, func(*int) int64 { return 65 << 20 }); err != nil {
			t.Fatal(err)
		}
	}
	after = InputStats()
	if ws[0] == ws[1] || after.Bytes != before.Bytes || after.Resets != before.Resets {
		t.Errorf("an input over the budget was kept: %p, %p, %+v → %+v", ws[0], ws[1], before, after)
	}
}
