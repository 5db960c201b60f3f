// Package core is the benchmark harness — the paper's primary
// contribution is its comparative evaluation, and this package reproduces
// it: a registry with one experiment per table and figure (Table 1,
// Figures 10–15, and the Section 5.3 tuning studies), each producing the
// same rows/series the paper reports, plus a shape check verifying that
// the qualitative result (who wins, by what factor, where crossovers
// fall) matches the paper.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Table is one experiment's output: rows (usually systems or parameter
// values) × columns (usually sweep points), with float cells in the unit
// named by Unit. NaN marks combinations that are not applicable (the
// paper's "NA"/"X" entries).
type Table struct {
	Title    string
	Unit     string
	ColNames []string
	RowNames []string
	Cells    [][]float64
	Notes    []string
}

// NewTable allocates a rows×cols table filled with NaN.
func NewTable(title, unit string, rows, cols []string) *Table {
	t := &Table{Title: title, Unit: unit, RowNames: rows, ColNames: cols}
	t.Cells = make([][]float64, len(rows))
	for i := range t.Cells {
		t.Cells[i] = make([]float64, len(cols))
		for j := range t.Cells[i] {
			t.Cells[i][j] = math.NaN()
		}
	}
	return t
}

// Set assigns a cell by row and column name. Unknown names panic: they
// are experiment bugs, not data conditions.
func (t *Table) Set(row, col string, v float64) {
	t.Cells[t.rowIdx(row)][t.colIdx(col)] = v
}

// Get returns a cell by row and column name.
func (t *Table) Get(row, col string) float64 {
	return t.Cells[t.rowIdx(row)][t.colIdx(col)]
}

func (t *Table) rowIdx(name string) int {
	for i, r := range t.RowNames {
		if r == name {
			return i
		}
	}
	panic(fmt.Sprintf("core: unknown row %q in %q", name, t.Title))
}

func (t *Table) colIdx(name string) int {
	for i, c := range t.ColNames {
		if c == name {
			return i
		}
	}
	panic(fmt.Sprintf("core: unknown column %q in %q", name, t.Title))
}

// Render formats the table as fixed-width text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", t.Title)
	if t.Unit != "" {
		fmt.Fprintf(&b, "  [%s]", t.Unit)
	}
	b.WriteByte('\n')
	w := 12
	for _, r := range t.RowNames {
		if len(r)+2 > w {
			w = len(r) + 2
		}
	}
	fmt.Fprintf(&b, "%-*s", w, "")
	for _, c := range t.ColNames {
		fmt.Fprintf(&b, "%12s", c)
	}
	b.WriteByte('\n')
	for i, r := range t.RowNames {
		fmt.Fprintf(&b, "%-*s", w, r)
		for j := range t.ColNames {
			v := t.Cells[i][j]
			switch {
			case math.IsNaN(v):
				fmt.Fprintf(&b, "%12s", "NA")
			case v >= 1000:
				fmt.Fprintf(&b, "%12.0f", v)
			default:
				fmt.Fprintf(&b, "%12.2f", v)
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Profile scales an experiment run. Quick keeps everything small for
// tests; Full uses the paper's sweep points with the default scaled
// geometry.
type Profile struct {
	Name          string
	NeuroSubjects []int
	AstroVisits   []int
	ClusterNodes  []int
	// Geometry scale for the synthetic data (see synth package).
	NeuroNX, NeuroNY, NeuroNZ, NeuroT, NeuroB0 int
	AstroSensors, AstroW, AstroH, AstroSources int
	// FaultScenarios are the fault-injection scenarios the ft*
	// experiments compare, in cluster.ParseScenario syntax ("baseline",
	// "kill:1@30%", "slow:1@25%*4", ...). Empty falls back to
	// DefaultFaultScenarios.
	FaultScenarios []string
	// Systems restricts experiments to the named engines (the CLI's
	// -systems flag and the sweep's systems axis); empty means every
	// registered engine. omitempty keeps the field out of the JSON of
	// unfiltered profiles (API bodies, artifacts, sweep specs).
	Systems []string `json:",omitempty"`
}

// DefaultFaultScenarios returns the canonical recovery-overhead grid:
// fault-free baseline, one kill, two kills, and a straggler. Fault times
// are fractions of each system's own baseline makespan, so every
// scenario lands mid-run on every system; the straggler degrades early
// (5%) so it catches each system's long-running tasks before they start.
func DefaultFaultScenarios() []string {
	return []string{"baseline", "kill:1@30%", "kill:1@30%+kill:2@55%", "slow:1@5%*4"}
}

// Quick is the test/CI profile.
func Quick() Profile {
	return Profile{
		Name:          "quick",
		NeuroSubjects: []int{1, 4, 12},
		AstroVisits:   []int{2, 4},
		ClusterNodes:  []int{4, 8, 16},
		NeuroNX:       8, NeuroNY: 8, NeuroNZ: 10, NeuroT: 48, NeuroB0: 3,
		AstroSensors: 4, AstroW: 32, AstroH: 32, AstroSources: 10,
		FaultScenarios: DefaultFaultScenarios(),
	}
}

// Full is the paper-sweep profile.
func Full() Profile {
	return Profile{
		Name:          "full",
		NeuroSubjects: []int{1, 2, 4, 8, 12, 25},
		AstroVisits:   []int{2, 4, 8, 12, 24},
		ClusterNodes:  []int{16, 32, 48, 64},
		NeuroNX:       12, NeuroNY: 12, NeuroNZ: 14, NeuroT: 48, NeuroB0: 3,
		AstroSensors: 6, AstroW: 48, AstroH: 48, AstroSources: 24,
		FaultScenarios: DefaultFaultScenarios(),
	}
}

// faultScenarios returns the profile's scenario set, defaulting for
// hand-rolled profiles that leave it empty.
func (p Profile) faultScenarios() []string {
	if len(p.FaultScenarios) == 0 {
		return DefaultFaultScenarios()
	}
	return p.FaultScenarios
}

// Experiment reproduces one paper artifact.
type Experiment struct {
	ID    string // e.g. "fig10c"
	Title string
	// Paper summarizes the shape the paper reports.
	Paper string
	// Run executes the experiment under the profile. The context
	// carries cancellation plus the observability plumbing (obs tracer,
	// metrics registry, parent span); deterministic simulations must not
	// let it change their results.
	Run func(ctx context.Context, p Profile) (*Table, error)
	// Check validates that the table's shape matches the paper's
	// finding. It is run by tests against both profiles.
	Check func(t *Table) error
}

var registry []*Experiment

// Register adds an experiment; it panics on duplicate IDs.
func Register(e *Experiment) {
	for _, x := range registry {
		if x.ID == e.ID {
			panic("core: duplicate experiment " + e.ID)
		}
	}
	registry = append(registry, e)
}

// All returns the experiments sorted by ID.
func All() []*Experiment {
	out := append([]*Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (*Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return nil, fmt.Errorf("core: unknown experiment %q (use -list)", id)
}

// shape-check helpers shared by the experiment files.

// wantLess reports an error unless a < b.
func wantLess(what string, a, b float64) error {
	if math.IsNaN(a) || math.IsNaN(b) || a >= b {
		return fmt.Errorf("%s: want %.3g < %.3g", what, a, b)
	}
	return nil
}

// wantRatioAtLeast reports an error unless a/b ≥ r.
func wantRatioAtLeast(what string, a, b, r float64) error {
	if math.IsNaN(a) || math.IsNaN(b) || b == 0 || a/b < r {
		return fmt.Errorf("%s: want %.3g/%.3g >= %.2f (got %.2f)", what, a, b, r, a/b)
	}
	return nil
}

// wantWithin reports an error unless a is within frac of b.
func wantWithin(what string, a, b, frac float64) error {
	if math.IsNaN(a) || math.IsNaN(b) || b == 0 {
		return fmt.Errorf("%s: missing values", what)
	}
	if r := math.Abs(a-b) / b; r > frac {
		return fmt.Errorf("%s: %.3g vs %.3g differ by %.0f%% (want <= %.0f%%)", what, a, b, r*100, frac*100)
	}
	return nil
}
