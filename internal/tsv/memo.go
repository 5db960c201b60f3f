package tsv

import (
	"imagebench/internal/memo"
	"imagebench/internal/volume"
)

// RoundTrip is Decode(Encode(v)) behind the process-wide memo (package
// memo, kind memo.Text): the volume as the far side of SciDB's stream()
// parses it, and the length of the TSV text that crossed. The key is
// the dialect plus the shape and raw bits of v; the first call on a
// content runs the two codecs, every other is served what they
// produced, to read and never to write. Encode, Decode and their CSV
// twins never consult the table.
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
	held, err := k.Shared(func() (any, int64, error) {
		text := encode(v, sep)
		parsed, err := decode(text, sep)
		if err != nil {
			return nil, 0, err
		}
		return &trip{parsed, len(text)}, parsed.Bytes(), nil
	})
	if err != nil {
		return nil, 0, err
	}
	t := held.(*trip)
	return t.parsed, t.n, nil
}

// trip is one round trip as the memo holds it: the parsed volume and
// the length of the text that crossed.
type trip struct {
	parsed *volume.V3
	n      int
}

// Volume is the parsed volume, which the memo indexes by its digest.
func (t *trip) Volume() *volume.V3 { return t.parsed }
