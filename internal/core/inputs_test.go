package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"imagebench/internal/astro"
	"imagebench/internal/engine"
	"imagebench/internal/imaging"
	"imagebench/internal/memo"
	"imagebench/internal/neuro"
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

// wantInputsUnwritten compares every shared input the process holds
// with one the pure builder makes now from the same config: no engine,
// fault scenario or tuning experiment that ran since it was built wrote
// to it or to an object of its store.
func wantInputsUnwritten(t *testing.T) {
	t.Helper()
	type held struct{ cfg, w any }
	var all []held
	inputs.Each(func(cfg, w any) { all = append(all, held{cfg, w}) })
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

// stageDigests is everything a reader can see of every value the stage
// memo holds and hands out as stored: decoded exposures, and decoded
// volumes alone, in a series or inside a CSV round trip, keyed as the
// memo keys them. Every held volume's digest must come from the memo's
// index and equal the digest its voxels hash to now.
func stageDigests(t *testing.T) map[memo.Key]string {
	t.Helper()
	held := map[memo.Key]any{}
	memo.EachShared(func(key memo.Key, v any) { held[key] = v })
	indexed, volumes := memo.Snapshot().IndexedDigests, uint64(0)
	out := map[memo.Key]string{}
	for key, v := range held {
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
				if memo.Digest(v) != memo.Digest(v.Clone()) {
					t.Errorf("a held %d×%d×%d volume's indexed digest is not the digest of its voxels", v.NX, v.NY, v.NZ)
				}
				volumes++
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
		case interface{ Volume() *volume.V3 }:
			vols(v.Volume())
		default:
			t.Errorf("a shared stage value of type %T", v)
		}
		out[key] = fmt.Sprintf("%T %x", v, h.Sum(nil))
	}
	if got := memo.Snapshot().IndexedDigests - indexed; got != volumes {
		t.Errorf("%d of %d held volumes had their digest read from the index", got, volumes)
	}
	return out
}

// wantStageValuesUnwritten compares every shared stage value the memo
// still holds with what it read as at first: whatever ran in between
// only read it.
func wantStageValuesUnwritten(t *testing.T, first map[memo.Key]string) {
	t.Helper()
	if len(first) == 0 {
		t.Fatal("no shared stage value was held after the first pass")
	}
	still := 0
	for key, now := range stageDigests(t) {
		if was, held := first[key]; held {
			still++
			if now != was {
				t.Errorf("the shared stage value under %x read %s after the first pass and reads %s now", key[:6], was, now)
			}
		}
	}
	if still == 0 {
		t.Error("none of the first pass's shared stage values is still held: nothing was compared")
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

// A build that fails is returned to its caller and not kept: the next
// caller builds again, and what that one builds is kept.
func TestFailedInputBuildIsRetried(t *testing.T) {
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

// Inputs past the budget make the table forget what it holds, not
// withdraw it: a workload a running cell still holds reads as before,
// the next caller for its config builds one of its own with the same
// content, and an input larger than the whole budget is served and
// never kept.
func TestInputBudgetOverflowKeepsHeldWorkloads(t *testing.T) {
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
