package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"imagebench/internal/fan"
)

// This file holds the serialization and service hooks used by the
// experiment service (internal/runner, internal/results,
// cmd/imagebenchd): a stable profile fingerprint for content-addressed
// result keys, JSON round-tripping for Table (NaN cells become null),
// and a context-aware run entry point.

// Fingerprint returns a stable content hash of the profile. Two profiles
// with identical parameters always fingerprint identically, so the hash
// can key caches across processes and restarts.
func (p Profile) Fingerprint() string {
	var b [2 * sha256.Size]byte
	return string(p.AppendFingerprint(b[:0]))
}

// AppendFingerprint appends p.Fingerprint() (hex SHA-256 of p's JSON) to dst.
func (p Profile) AppendFingerprint(dst []byte) []byte {
	b, err := json.Marshal(p)
	if err != nil {
		// Profile is a flat struct of strings and ints; marshal cannot
		// fail unless the type itself is broken.
		panic("core: marshal profile: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.AppendEncode(dst, sum[:])
}

// ProfileByName returns one of the built-in profiles ("quick" or
// "full").
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "quick":
		return Quick(), nil
	case "full":
		return Full(), nil
	}
	return Profile{}, fmt.Errorf("core: unknown profile %q (want \"quick\" or \"full\")", name)
}

// jsonTable is the wire form of Table. Cells use *float64 so the
// paper's NA cells (NaN in memory, which encoding/json rejects)
// round-trip as JSON null.
type jsonTable struct {
	Title   string       `json:"title"`
	Unit    string       `json:"unit"`
	Columns []string     `json:"columns"`
	Rows    []string     `json:"rows"`
	Cells   [][]*float64 `json:"cells"`
	Notes   []string     `json:"notes,omitempty"`
}

// NullableCells returns the table's cells with NaN (the paper's NA
// entries) as nil — the wire convention shared by the result cache's
// JSON encoding and the CLI's -json output.
func (t *Table) NullableCells() [][]*float64 {
	cells := make([][]*float64, len(t.Cells))
	for i, row := range t.Cells {
		cells[i] = make([]*float64, len(row))
		for j, v := range row {
			if !math.IsNaN(v) {
				v := v
				cells[i][j] = &v
			}
		}
	}
	return cells
}

// MarshalJSON encodes the table with NaN cells as null.
func (t *Table) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonTable{
		Title: t.Title, Unit: t.Unit,
		Columns: t.ColNames, Rows: t.RowNames,
		Cells: t.NullableCells(), Notes: t.Notes,
	})
}

// UnmarshalJSON decodes a table written by MarshalJSON, turning null
// cells back into NaN.
func (t *Table) UnmarshalJSON(data []byte) error {
	var jt jsonTable
	if err := json.Unmarshal(data, &jt); err != nil {
		return err
	}
	for i, row := range jt.Cells {
		if len(row) != len(jt.Columns) {
			return fmt.Errorf("core: table %q row %d has %d cells, want %d", jt.Title, i, len(row), len(jt.Columns))
		}
	}
	if len(jt.Cells) != len(jt.Rows) {
		return fmt.Errorf("core: table %q has %d cell rows, want %d", jt.Title, len(jt.Cells), len(jt.Rows))
	}
	t.Title, t.Unit = jt.Title, jt.Unit
	t.ColNames, t.RowNames = jt.Columns, jt.Rows
	t.Notes = jt.Notes
	t.Cells = make([][]float64, len(jt.Cells))
	for i, row := range jt.Cells {
		t.Cells[i] = make([]float64, len(row))
		for j, v := range row {
			if v == nil {
				t.Cells[i][j] = math.NaN()
			} else {
				t.Cells[i][j] = *v
			}
		}
	}
	return nil
}

// VirtualSeconds returns the total simulated time the table reports:
// the sum of its non-NA cells when the unit is virtual seconds, zero
// for tables in other units (GB, LoC, ratios). The service layer
// aggregates this into its "virtual seconds simulated" metric.
func (t *Table) VirtualSeconds() float64 {
	if !strings.Contains(t.Unit, "virtual s") {
		return 0
	}
	var sum float64
	for _, row := range t.Cells {
		for _, v := range row {
			if !math.IsNaN(v) {
				sum += v
			}
		}
	}
	return sum
}

// RunContext executes the experiment under p, honoring ctx. The
// registered Run functions are deterministic, CPU-bound virtual-time
// simulations with no internal blocking, so cancellation is honored at
// cell granularity: a canceled context prevents the run from starting,
// a cancellation that arrives mid-run stops it at the next cell
// boundary (fan.Each), and one that arrives after the last cell is
// reported once the run returns. The caller counts as one of the
// goroutines running cells for as long as it is in here.
func (e *Experiment) RunContext(ctx context.Context, p Profile) (*Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %s not started: %w", e.ID, err)
	}
	fan.Enter()
	defer fan.Leave()
	tab, err := e.Run(ctx, p)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return tab, nil
}
