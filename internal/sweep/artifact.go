package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"imagebench/internal/core"
	"imagebench/internal/results"
	"imagebench/internal/runner"
)

// ArtifactCell is one cell of the combined sweep artifact.
type ArtifactCell struct {
	Experiment string      `json:"experiment"`
	Profile    string      `json:"profile"`
	Key        string      `json:"key"`
	Status     string      `json:"status"`
	CacheHit   bool        `json:"cacheHit,omitempty"`
	Error      string      `json:"error,omitempty"`
	ElapsedSec float64     `json:"elapsedSec"`
	Table      *core.Table `json:"table,omitempty"`
}

// artifactDoc is the materialized shape of the combined artifact; the
// streaming writer reproduces json.MarshalIndent of exactly this value
// byte for byte (see TestArtifactWriterMatchesMarshal).
type artifactDoc struct {
	Cells   []ArtifactCell `json:"cells"`
	ID      string         `json:"id"`
	Spec    Spec           `json:"spec"`
	Summary Info           `json:"summary"`
}

// ArtifactWriter streams the combined sweep artifact to an io.Writer
// one cell at a time. The document's top-level keys sort as cells, id,
// spec, summary — the cells array comes first — so completed cells can
// be appended as they finish and the summary written last, without
// ever materializing every cell's table in memory. The byte output is
// identical to marshaling the whole document at once with
// json.MarshalIndent, so downstream consumers cannot tell which path
// produced a given artifact.
type ArtifactWriter struct {
	w     io.Writer
	cells int
	err   error
}

// NewArtifactWriter starts an artifact on w.
func NewArtifactWriter(w io.Writer) *ArtifactWriter {
	return &ArtifactWriter{w: w}
}

func (aw *ArtifactWriter) write(s string) {
	if aw.err == nil {
		_, aw.err = io.WriteString(aw.w, s)
	}
}

// Cell appends one cell. Cells must arrive in final document order;
// the caller may release the cell's table as soon as Cell returns.
func (aw *ArtifactWriter) Cell(c ArtifactCell) error {
	if aw.cells == 0 {
		aw.write("{\n  \"cells\": [\n")
	} else {
		aw.write(",\n")
	}
	// Indent with the element's prefix so the embedded bytes match what
	// MarshalIndent of the enclosing document would emit at this depth.
	b, err := json.MarshalIndent(c, "    ", "  ")
	if err != nil && aw.err == nil {
		aw.err = err
	}
	aw.write("    ")
	if aw.err == nil {
		_, aw.err = aw.w.Write(b)
	}
	aw.cells++
	return aw.err
}

// Finish writes the trailing id, spec, and summary and closes the
// document. No methods may be called afterwards.
func (aw *ArtifactWriter) Finish(id string, spec Spec, summary Info) error {
	summary.Cells = nil
	if aw.cells == 0 {
		aw.write("{\n  \"cells\": [],\n")
	} else {
		aw.write("\n  ],\n")
	}
	for _, kv := range []struct {
		key string
		val any
	}{{"id", id}, {"spec", spec}, {"summary", summary}} {
		b, err := json.MarshalIndent(kv.val, "  ", "  ")
		if err != nil && aw.err == nil {
			aw.err = err
		}
		aw.write("  \"" + kv.key + "\": ")
		if aw.err == nil {
			_, aw.err = aw.w.Write(b)
		}
		if kv.key != "summary" {
			aw.write(",\n")
		}
	}
	aw.write("\n}\n")
	return aw.err
}

// StreamArtifact writes the sweep's combined artifact to w as the
// sweep runs: it waits for each cell in document order, appends the
// cell with its table the moment it is terminal, releases the cell's
// retained table, and finishes with the aggregate summary once every
// cell is written. At most the scheduler's in-flight results are live
// at any instant — the artifact's memory footprint is O(workers), not
// O(cells). It returns the sweep's final Info (summary fields only).
//
// Releasing means a cell's Result is no longer available from its job
// after its line is written (it remains available from the cache when
// one is attached), so StreamArtifact is for batch consumers that own
// the sweep, like the CLI.
func (s *Sweep) StreamArtifact(ctx context.Context, w io.Writer, cache *results.Cache) (Info, error) {
	aw := NewArtifactWriter(w)
	for _, c := range s.Cells {
		select {
		case <-c.job.Done():
		case <-ctx.Done():
			return Info{}, ctx.Err()
		}
		ci := s.cellInfo(c)
		ac := ArtifactCell{
			Experiment: c.Experiment, Profile: c.Profile.Name, Key: c.Key,
			Status: string(ci.Status), CacheHit: ci.CacheHit,
			Error: ci.Error, ElapsedSec: ci.ElapsedSec,
		}
		if tab, ok := s.Result(c, cache); ok {
			ac.Table = tab
		}
		err := aw.Cell(ac)
		c.job.ReleaseTable()
		if err != nil {
			return Info{}, fmt.Errorf("sweep: writing artifact cell %s: %w", c.Key, err)
		}
	}
	final := s.Info(false)
	if err := aw.Finish(s.ID, s.Spec, final); err != nil {
		return Info{}, fmt.Errorf("sweep: writing artifact summary: %w", err)
	}
	return final, nil
}

// WriteCanonicalArtifact writes the deterministic form of the combined
// artifact for an expanded cell set: the same document shape as
// StreamArtifact, with every volatile field zeroed — elapsed seconds,
// cache-hit provenance, creation time — so two runs of the same grid
// produce byte-identical artifacts no matter where or when the cells
// executed. This is the federation acceptance check: a sweep scattered
// across workers (some of them killed mid-flight) must reduce to
// exactly the bytes a single-node run produces.
//
// lookup supplies each cell's table; a cell whose table cannot be
// produced is recorded as failed. Cells are written in the given order,
// which Expand makes deterministic for a given spec.
func WriteCanonicalArtifact(w io.Writer, id string, spec Spec, cells []*Cell, lookup func(*Cell) *core.Table) error {
	aw := NewArtifactWriter(w)
	sum := Info{ID: id, Total: len(cells)}
	for _, c := range cells {
		ac := ArtifactCell{
			Experiment: c.Experiment, Profile: c.Profile.Name, Key: c.Key,
			Status: string(runner.StatusDone),
		}
		if tab := lookup(c); tab != nil {
			ac.Table = tab
			sum.Done++
		} else {
			ac.Status = string(runner.StatusFailed)
			ac.Error = "no result table"
			sum.Failed++
		}
		if err := aw.Cell(ac); err != nil {
			return fmt.Errorf("sweep: writing canonical artifact cell %s: %w", c.Key, err)
		}
	}
	if err := aw.Finish(id, spec, sum); err != nil {
		return fmt.Errorf("sweep: writing canonical artifact summary: %w", err)
	}
	return nil
}

// cellInfo snapshots one cell (the per-cell body of Info).
func (s *Sweep) cellInfo(c *Cell) CellInfo {
	js := c.job.Snapshot()
	return CellInfo{
		Experiment: c.Experiment, Profile: c.Profile.Name, Key: c.Key,
		Status: js.Status, CacheHit: js.CacheHit, Error: js.Error,
		Unsupported: js.Unsupported, ElapsedSec: js.ElapsedSec,
	}
}
