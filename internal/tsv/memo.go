package tsv

import (
	"imagebench/internal/memo"
	"imagebench/internal/volume"
)

// RoundTrip is Decode(Encode(v)) behind the process-wide memo (package
// memo, kind memo.Text): the volume as the far side of SciDB's stream()
// parses it, and the length of the TSV text that crossed. The key is
// the dialect plus the shape and raw bits of v; the first call on a
// content runs the two codecs, every other is served a fresh copy of
// what they produced. Encode, Decode and their CSV twins never consult
// the table.
func RoundTrip(v *volume.V3) (parsed *volume.V3, encodedLen int, err error) {
	return roundTrip(v, '\t')
}

// RoundTripCSV is DecodeCSV(EncodeCSV(v)) behind the memo: the
// NIfTI→CSV conversion ahead of aio_input().
func RoundTripCSV(v *volume.V3) (parsed *volume.V3, encodedLen int, err error) {
	return roundTrip(v, ',')
}

func roundTrip(v *volume.V3, sep byte) (*volume.V3, int, error) {
	k := memo.NewKey(memo.Text)
	k.U64(uint64(sep))
	k.Volume(v)
	parsed, n, err := k.Do(func() (*volume.V3, int64, error) {
		text := encode(v, sep)
		parsed, err := decode(text, sep)
		return parsed, int64(len(text)), err
	})
	return parsed, int(n), err
}
