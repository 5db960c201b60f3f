package volume

import (
	"testing"
	"testing/quick"
)

func TestIndexRoundTrip(t *testing.T) {
	v := New3(3, 4, 5)
	n := 0
	for z := 0; z < 5; z++ {
		for y := 0; y < 4; y++ {
			for x := 0; x < 3; x++ {
				if v.Idx(x, y, z) != n {
					t.Fatalf("Idx(%d,%d,%d)=%d, want %d", x, y, z, v.Idx(x, y, z), n)
				}
				n++
			}
		}
	}
	v.Set(2, 3, 4, 7)
	if v.At(2, 3, 4) != 7 {
		t.Error("Set/At mismatch")
	}
}

func TestSummarize(t *testing.T) {
	v := New3(2, 2, 1)
	copy(v.Data, []float64{1, 2, 3, 4})
	s := v.Summarize()
	if s.Min != 1 || s.Max != 4 || s.Mean != 2.5 || s.NonZero != 4 {
		t.Errorf("stats %+v", s)
	}
	if s.Std < 1.11 || s.Std > 1.12 { // sqrt(1.25)
		t.Errorf("std %v", s.Std)
	}
}

func TestMean3(t *testing.T) {
	a := New3(2, 1, 1)
	b := New3(2, 1, 1)
	a.Data[0], a.Data[1] = 2, 4
	b.Data[0], b.Data[1] = 4, 8
	m := Mean3([]*V3{a, b})
	if m.Data[0] != 3 || m.Data[1] != 6 {
		t.Errorf("mean %v", m.Data)
	}
}

func TestV4Select(t *testing.T) {
	vols := []*V3{New3(1, 1, 1), New3(1, 1, 1), New3(1, 1, 1)}
	for i, v := range vols {
		v.Data[0] = float64(i)
	}
	v4 := New4(vols)
	sel := v4.Select([]bool{true, false, true})
	if sel.T() != 2 || sel.Vols[0].Data[0] != 0 || sel.Vols[1].Data[0] != 2 {
		t.Errorf("select wrong")
	}
}

func TestBlocksPartitionProperty(t *testing.T) {
	// Property: Blocks(nz, n) tiles [0,nz) exactly, in order, no overlap.
	f := func(nzRaw, nRaw uint8) bool {
		nz := int(nzRaw%40) + 1
		n := int(nRaw%10) + 1
		bs := Blocks(nz, n)
		next := 0
		for _, b := range bs {
			if b.Z0 != next || b.Z1 <= b.Z0 {
				return false
			}
			next = b.Z1
		}
		return next == nz
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTileZPartitionProperty(t *testing.T) {
	// Property: TileZ(nz, rows) tiles [0,nz) exactly, in order, no
	// overlap, and every tile but the last has exactly rows planes.
	f := func(nzRaw, rowsRaw uint8) bool {
		nz := int(nzRaw%40) + 1
		rows := int(rowsRaw % 8) // includes 0, which must behave as 1
		ts := TileZ(nz, rows)
		wantRows := rows
		if wantRows <= 0 {
			wantRows = 1
		}
		next := 0
		for i, b := range ts {
			if b.Z0 != next || b.Z1 <= b.Z0 {
				return false
			}
			if i < len(ts)-1 && b.Z1-b.Z0 != wantRows {
				return false
			}
			if b.Z1-b.Z0 > wantRows {
				return false
			}
			next = b.Z1
		}
		return next == nz
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestExtractInsertBlockRoundTrip(t *testing.T) {
	v := New3(3, 3, 6)
	for i := range v.Data {
		v.Data[i] = float64(i)
	}
	out := New3(3, 3, 6)
	for _, b := range Blocks(6, 4) {
		InsertBlock(out, b, ExtractBlock(v, b))
	}
	if MaxAbsDiff(v, out) != 0 {
		t.Error("extract/insert round trip lost data")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := New3(2, 1, 1)
	b := New3(2, 1, 1)
	b.Data[1] = -3
	if d := MaxAbsDiff(a, b); d != 3 {
		t.Errorf("diff %v", d)
	}
}
