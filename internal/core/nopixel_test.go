package core

import (
	"context"
	"testing"

	"imagebench/internal/memo"
)

// pixelFree lists the memo kinds a table may move, each with why: the
// record counts and sizes some figure reads come from them. Every other
// kind is a pixel stage, which no table reads and no experiment forces.
var pixelFree = map[memo.Kind]string{
	memo.Decode: "the astronomy runs decode each FITS exposure: its header places it on the patch grid, which sets the records",
	memo.Load:   "the neuroscience runs decode their inputs when ingesting them (Fig 11 times ingest), and SciDB's CSV ingest reads them",
	memo.Text:   "SciDB's aio_input ingest converts each volume to CSV: the measured expansion sets the ingest cost the tables read",
}

// No table reads a pixel: one pass over every quick-profile experiment
// moves no hit or miss of a pixel stage (NLMeans, Fit, Mask, Slab,
// Coadd, Detect, Calibrate). The engine runs hand their outputs to
// nothing that forces them. Not parallel: the memo's counters are
// process-wide.
func TestTablesForceNoPixel(t *testing.T) {
	before := memo.Snapshot()
	p := Quick()
	for _, e := range All() {
		if _, err := e.Run(context.Background(), p); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}
	after := memo.Snapshot()
	for _, k := range memo.Kinds() {
		if _, ok := pixelFree[k]; ok {
			continue
		}
		b, a := before.Kinds[k], after.Kinds[k]
		if a.Hits != b.Hits || a.Misses != b.Misses {
			t.Errorf("%s: the quick pass moved %d hits and %d misses; a table forced pixels", k, a.Hits-b.Hits, a.Misses-b.Misses)
		}
	}
}
