package dmri

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"imagebench/internal/memo"
	"imagebench/internal/volume"
)

// memoSalt makes test content unique within the process, -count=N
// included: the memo is process-wide and has no reset.
var memoSalt atomic.Int64

// unseenSeries returns a noisy single-tensor series nothing has fitted
// before.
func unseenSeries(g *GradTable, nx, ny, nz int) *volume.V4 {
	salt := memoSalt.Add(1)
	rng := rand.New(rand.NewSource(salt))
	sig := signalFor(g, Tensor{Dxx: 1.6e-3, Dyy: 0.4e-3, Dzz: 0.3e-3}, 1000)
	vols := make([]*volume.V3, g.N())
	for i := range vols {
		vols[i] = volume.New3(nx, ny, nz)
		for j := range vols[i].Data {
			vols[i].Data[j] = sig[i] * (1 + 0.05*rng.Float64())
		}
	}
	vols[0].Data[0] = 1e6 + float64(salt)
	return volume.New4(vols)
}

func fitStats() memo.KindStats { return memo.Snapshot().Kinds[memo.Fit] }

func sameBits(a, b *volume.V3) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// A miss and a hit both return exactly FitFA's bits; a hit is the map
// the miss stored, and FitFA itself never touches the table. A series
// with one voxel of one volume changed is another input, never
// answered from the original's entry.
func TestFitFAMemoMatchesFitFA(t *testing.T) {
	g := table(12, 2)
	vols := unseenSeries(g, 3, 4, 2)
	mask := volume.New3(3, 4, 2)
	for i := range mask.Data {
		mask.Data[i] = float64(i % 2)
	}
	before := fitStats()
	want, err := FitFA(g, vols, mask)
	if err != nil {
		t.Fatal(err)
	}
	if s := fitStats(); s != before {
		t.Fatalf("FitFA moved the memo's counters: %+v → %+v", before, s)
	}
	var first *volume.V3
	for round := 0; round < 3; round++ {
		got, err := FitFAMemo(g, vols, mask)
		if err != nil || !sameBits(got, want) {
			t.Fatalf("round %d: err %v, same bits as FitFA: %v", round, err, err == nil && sameBits(got, want))
		}
		if round == 0 {
			first = got
		} else if got != first {
			t.Fatalf("round %d: the hit is not the map the miss stored", round)
		}
	}
	if s := fitStats(); s.Misses-before.Misses != 1 || s.Hits-before.Hits != 2 {
		t.Fatalf("%d misses and %d hits, want 1 and 2", s.Misses-before.Misses, s.Hits-before.Hits)
	}

	changed := append([]*volume.V3(nil), vols.Vols...)
	changed[4] = changed[4].Clone()
	changed[4].Data[2] = math.Nextafter(changed[4].Data[2], 0) // one ulp
	before = fitStats()
	got, err := FitFAMemo(g, volume.New4(changed), mask)
	if err != nil || got == first {
		t.Fatalf("one voxel changed: %v, answered from the original's entry: %v", err, got == first)
	}
	if want, _ := FitFA(g, volume.New4(changed), mask); !sameBits(got, want) {
		t.Fatal("one voxel changed: wrong output")
	}
	if s := fitStats(); s.Misses-before.Misses != 1 || s.Hits != before.Hits {
		t.Fatalf("one voxel changed: %d misses and %d hits, want 1 and 0", s.Misses-before.Misses, s.Hits-before.Hits)
	}
}

// What makes two fits different entries: any bit of the gradient table,
// the order of the volumes, and the mask — nil is not all-ones.
func TestFitFAMemoKey(t *testing.T) {
	g := table(12, 2)
	vols := unseenSeries(g, 2, 3, 2)
	ones := volume.New3(2, 3, 2)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	if _, err := FitFAMemo(g, vols, nil); err != nil {
		t.Fatal(err)
	}

	otherB := table(12, 2)
	otherB.BVals[5] = 1001
	otherVec := table(12, 2)
	otherVec.BVecs[5][2] = -otherVec.BVecs[5][2]
	swapped := append([]*volume.V3(nil), vols.Vols...)
	swapped[3], swapped[4] = swapped[4], swapped[3]
	distinct := []struct {
		name string
		g    *GradTable
		v    *volume.V4
		m    *volume.V3
	}{
		{"all-ones mask instead of nil", g, vols, ones},
		{"one b-value", otherB, vols, nil},
		{"one gradient component's sign", otherVec, vols, nil},
		{"two volumes swapped", g, volume.New4(swapped), nil},
	}
	for _, c := range distinct {
		before := fitStats()
		got, err := FitFAMemo(c.g, c.v, c.m)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if s := fitStats(); s.Misses-before.Misses != 1 || s.Hits != before.Hits {
			t.Errorf("%s: served from another input's entry", c.name)
		}
		if want, _ := FitFA(c.g, c.v, c.m); !sameBits(got, want) {
			t.Errorf("%s: wrong output", c.name)
		}
	}

	// Equal content at other addresses is the same entry.
	clones := make([]*volume.V3, len(vols.Vols))
	for i, v := range vols.Vols {
		clones[i] = v.Clone()
	}
	before := fitStats()
	if _, err := FitFAMemo(table(12, 2), volume.New4(clones), nil); err != nil {
		t.Fatal(err)
	}
	if s := fitStats(); s.Hits-before.Hits != 1 || s.Misses != before.Misses {
		t.Error("equal content at other addresses missed")
	}
}

// An input FitFA rejects is rejected every time: errors are not stored.
func TestFitFAMemoErrorNotStored(t *testing.T) {
	g := table(12, 2)
	vols := unseenSeries(g, 2, 2, 2)
	short := volume.New4(vols.Vols[:5])
	before := fitStats()
	for round := 0; round < 2; round++ {
		if _, err := FitFAMemo(g, short, nil); err == nil {
			t.Fatal("volume/gradient mismatch accepted")
		}
	}
	if s := fitStats(); s.Misses-before.Misses != 2 || s.Bytes != before.Bytes {
		t.Fatalf("%d misses, %d bytes stored, want 2 and 0", s.Misses-before.Misses, s.Bytes-before.Bytes)
	}
}
