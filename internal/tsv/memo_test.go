package tsv

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

func unseenVol(nx, ny, nz int) *volume.V3 {
	salt := memoSalt.Add(1)
	v := randomVol(rand.New(rand.NewSource(salt)), nx, ny, nz)
	v.Data[0] = 1e6 + float64(salt)
	return v
}

func textStats() memo.KindStats { return memo.Snapshot().Kinds[memo.Text] }

// The round trips return exactly what the codecs produce, with the
// encoded length the codec wrote — so the expansion SciDB's ingest
// derives from it is the same number bit for bit. The CSV one is
// memoized: every hit is the volume the miss stored. The TSV one, and
// the raw codecs, never touch the table. A CSV round trip of the held
// volume keys it through the memo's index, to the entry its content has.
func TestMemoRoundTripMatchesCodecs(t *testing.T) {
	v := unseenVol(5, 4, 3)
	v.Data[1], v.Data[2] = math.Copysign(0, -1), math.Inf(1)
	wantTSV, wantCSV := Encode(v), EncodeCSV(v)
	before := textStats()
	if _, err := DecodeCSV(wantCSV); err != nil {
		t.Fatal(err)
	}
	if s := textStats(); s != before {
		t.Fatalf("the raw codecs moved the memo's counters: %+v → %+v", before, s)
	}

	var first, prev *volume.V3
	for round := 0; round < 3; round++ {
		got, n, err := RoundTrip(v)
		if err != nil || n != len(wantTSV) || !sameVolume(got, v) {
			t.Fatalf("round %d TSV: err %v, %d bytes (codec wrote %d), same bits %v", round, err, n, len(wantTSV), err == nil && sameVolume(got, v))
		}
		gotCSV, nCSV, err := RoundTripCSV(v)
		if err != nil || nCSV != len(wantCSV) || !sameVolume(gotCSV, v) {
			t.Fatalf("round %d CSV: err %v, %d bytes (codec wrote %d)", round, err, nCSV, len(wantCSV))
		}
		if a, b := float64(nCSV)/float64(8*v.Len()), float64(len(wantCSV))/float64(8*v.Len()); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("round %d: expansion %v from the memo, %v from the codec", round, a, b)
		}
		if round == 0 {
			first = gotCSV
		} else if gotCSV != first || got == prev {
			t.Fatalf("round %d: a CSV hit is not the volume the miss stored, or a TSV round trip was served", round)
		}
		prev = got
	}
	s := textStats()
	if s.Misses-before.Misses != 1 || s.Hits-before.Hits != 2 {
		t.Fatalf("%d misses and %d hits, want 1 (CSV only) and 2", s.Misses-before.Misses, s.Hits-before.Hits)
	}

	// The parsed volume has v's bits, so its round trip is v's entry.
	digests := memo.Snapshot()
	if again, _, err := RoundTripCSV(first); err != nil || again != first {
		t.Fatalf("the round trip of the held volume: %p (%v), want %p", again, err, first)
	}
	if now := memo.Snapshot(); now.IndexedDigests-digests.IndexedDigests != 1 || now.ContentDigests != digests.ContentDigests {
		t.Errorf("the held volume's key: %d digests from the index and %d hashed, want 1 and 0",
			now.IndexedDigests-digests.IndexedDigests, now.ContentDigests-digests.ContentDigests)
	}
}

// The CSV key is the raw bits: 0 and -0, and two NaN payloads, are
// different inputs although the text of the NaNs is the same.
func TestMemoRoundTripKeysOnRawBits(t *testing.T) {
	base := unseenVol(3, 2, 2)
	variant := func(i int, x float64) *volume.V3 {
		c := base.Clone()
		c.Data[i] = x
		return c
	}
	before := textStats()
	for _, v := range []*volume.V3{
		variant(1, 0), variant(1, math.Copysign(0, -1)),
		variant(1, math.Float64frombits(0x7ff8000000000001)), variant(1, math.Float64frombits(0x7ff8000000000002)),
	} {
		got, _, err := RoundTripCSV(v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := DecodeCSV(EncodeCSV(v))
		if err != nil || !sameVolume(got, want) {
			t.Fatalf("voxel %x: memoized round trip differs from the codecs", math.Float64bits(v.Data[1]))
		}
	}
	if s := textStats(); s.Misses-before.Misses != 4 || s.Hits != before.Hits {
		t.Fatalf("%d misses and %d hits, want 4 and 0", s.Misses-before.Misses, s.Hits-before.Hits)
	}
}

// A volume the codecs cannot round-trip fails every time, in both
// dialects: errors are not stored.
func TestMemoRoundTripErrorNotStored(t *testing.T) {
	before := textStats()
	for round := 0; round < 2; round++ {
		if _, _, err := RoundTripCSV(&volume.V3{}); err == nil {
			t.Fatal("an empty volume round-tripped")
		}
		if _, _, err := RoundTrip(&volume.V3{}); err == nil {
			t.Fatal("an empty volume round-tripped as TSV")
		}
	}
	if s := textStats(); s.Misses-before.Misses != 2 || s.Bytes != before.Bytes {
		t.Fatalf("%d misses, %d bytes stored, want 2 and 0", s.Misses-before.Misses, s.Bytes-before.Bytes)
	}
}
