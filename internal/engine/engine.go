// Package engine is the unified driver API over the five evaluated
// systems. The paper's contribution is a *comparative* evaluation —
// every experiment runs the same workload on several systems — and this
// package makes that comparison first-class: each system is described
// once, as a value that binds its own functions (end-to-end runs,
// recovery policy, the labelled ingest/step/co-addition measurements,
// Table 1 files), registers itself, and the experiment harness
// (internal/core) iterates the registry instead of switching on system
// names. One type (system, system.go) implements Engine for all five;
// spark.go, myria.go, dask.go, scidb.go and tf.go are its five
// literals. Which engine participates in which comparison is data —
// the measurements it binds and the paper ranks it registers — so
// adding a sixth engine is one registration literal, not an edit to
// every experiment.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"imagebench/internal/astro"
	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/neuro"
	"imagebench/internal/skymap"
	"imagebench/internal/vtime"
)

// Cap names one comparison an engine can participate in. Capabilities
// mirror the paper's evaluation matrix: an engine holds a capability
// when the paper (and this reproduction) includes it in that
// experiment family.
type Cap uint8

const (
	// CapNeuroE2E: runs the neuroscience pipeline end-to-end in the
	// headline data-size and cluster-size sweeps (Fig 10c/e/g).
	CapNeuroE2E Cap = iota
	// CapAstroE2E: runs the astronomy pipeline end-to-end (Fig 10d/f/h).
	CapAstroE2E
	// CapNeuroIngest: measured on the data-ingest path (Fig 11).
	CapNeuroIngest
	// CapNeuroStep: measured per neuroscience pipeline step (Fig 12a–c).
	CapNeuroStep
	// CapAstroCoadd: measured on the co-addition step (Fig 12d).
	CapAstroCoadd
	// CapFaultTolerance: compared under fault injection (the ft*
	// recovery-overhead experiments).
	CapFaultTolerance
	// CapLoC: its per-use-case implementation files are counted in the
	// lines-of-code comparison (Table 1).
	CapLoC

	numCaps
)

var capNames = [numCaps]string{
	CapNeuroE2E:       "neuro-e2e",
	CapAstroE2E:       "astro-e2e",
	CapNeuroIngest:    "neuro-ingest",
	CapNeuroStep:      "neuro-step",
	CapAstroCoadd:     "astro-coadd",
	CapFaultTolerance: "fault-tolerance",
	CapLoC:            "loc-table",
}

// String returns the capability's wire name (used by /v1/engines and
// the `imagebench engines` listing).
func (c Cap) String() string {
	if int(c) < len(capNames) {
		return capNames[c]
	}
	return fmt.Sprintf("cap(%d)", int(c))
}

// CapSet maps each capability an engine supports to its paper rank:
// the 1-based position of the engine in the corresponding figure's
// legend (Fig 10c lists Dask, Myria, Spark — so Dask registers rank 1
// there). Supporting() orders engines by that rank, which is what
// keeps every reproduced table's rows in the paper's order while the
// row *set* comes from the registry.
type CapSet map[Cap]int

// Has reports whether the set contains c.
func (s CapSet) Has(c Cap) bool {
	_, ok := s[c]
	return ok
}

// Names returns the set's capability names in declaration order
// (stable across runs — maps iterate randomly, figure ranks don't).
func (s CapSet) Names() []string {
	var out []string
	for c := Cap(0); c < numCaps; c++ {
		if s.Has(c) {
			out = append(out, c.String())
		}
	}
	return out
}

// RecoveryKind classifies what an engine does when a node dies mid-run
// (the qualitative axis of the ft* experiments).
type RecoveryKind string

const (
	// RecoverLineage recomputes only the lost partitions from lineage
	// (Spark).
	RecoverLineage RecoveryKind = "lineage-recompute"
	// RecoverResubmit resubmits the lost tasks on survivors (Dask).
	RecoverResubmit RecoveryKind = "task-resubmit"
	// RecoverCheckpoint restarts from the last checkpoint (TensorFlow).
	RecoverCheckpoint RecoveryKind = "checkpoint-restart"
	// RecoverRestart restarts the whole query (Myria).
	RecoverRestart RecoveryKind = "query-restart"
	// RecoverManualRerun has no mid-query recovery: the query fails and
	// the operator reruns it by hand (SciDB).
	RecoverManualRerun RecoveryKind = "manual-rerun"
)

// Partial reports whether the kind recovers at task granularity — a
// kill landing where survivors have slack can cost ~nothing, which is
// the paper's qualitative point about Spark and Dask.
func (k RecoveryKind) Partial() bool {
	return k == RecoverLineage || k == RecoverResubmit
}

// Opts carries the cross-engine run knobs the harness varies. Engines
// ignore knobs they have no equivalent for.
type Opts struct {
	// Partitions overrides the data-parallel width; 0 means one
	// partition per worker slot.
	Partitions int
	// CacheInput asks engines with an input-cache hint (Spark) to cache
	// the ingested input.
	CacheInput bool
}

// Result is what the harness needs back from an end-to-end run: the
// cluster makespan in virtual time, and the run's output (a
// *lazy.Value of the system's result type, from its Run function in
// internal/neuro or internal/astro). The output is computed only when
// read; no table reads it.
type Result struct {
	Makespan vtime.Duration
	Output   any
}

// Engine is one evaluated system. Run methods execute a workload
// end-to-end on the given cluster and return the virtual makespan; a
// workload the engine does not support fails with ErrUnsupported.
type Engine interface {
	// Name is the registry key and the row label in reproduced tables.
	Name() string
	// Capabilities reports which comparisons the engine participates
	// in, each with its paper rank.
	Capabilities() CapSet
	// RecoveryKind classifies the engine's mid-run fault recovery.
	RecoveryKind() RecoveryKind
	// RunNeuro executes the end-to-end neuroscience pipeline.
	RunNeuro(ctx context.Context, w *neuro.Workload, cl *cluster.Cluster, model *cost.Model, opts Opts) (Result, error)
	// RunAstro executes the end-to-end astronomy pipeline.
	RunAstro(ctx context.Context, w *astro.Workload, cl *cluster.Cluster, model *cost.Model, opts Opts) (Result, error)
	// RunWithFaults wraps run with the engine's recovery policy on a
	// fault-injected cluster: engines with internal recovery just run;
	// Myria restarts the whole program; SciDB reports failure and pays
	// the operator's manual rerun. reruns counts fully failed attempts
	// (manual-rerun engines only).
	RunWithFaults(cl *cluster.Cluster, run func() error) (reruns int, err error)
	// Runners returns the engine's labelled measurements for a
	// step-level capability (CapNeuroIngest, CapNeuroStep,
	// CapAstroCoadd), in row order. The engine holds c exactly when the
	// list is non-empty.
	Runners(c Cap) []Runner
	// SourceFiles returns the implementation files Table 1 counts: use
	// case (UseNeuro, UseAstro) → source file relative to internal/. A
	// missing use case is the paper's NA; the engine holds CapLoC
	// exactly when the map is non-empty.
	SourceFiles() map[string]string
}

// Input is what one measured step runs on. The harness fills the fields
// its figure reads: Fig 11 (CapNeuroIngest) reads Neuro; Fig 12a–c
// (CapNeuroStep) Neuro and Step; Fig 12d (CapAstroCoadd) Astro and
// Stacks.
type Input struct {
	Neuro *neuro.Workload
	// Step is "filter", "mean", or "denoise".
	Step  string
	Astro *astro.Workload
	// Stacks are the patch exposures co-addition consumes
	// (astro.BuildStacks), built once per column outside the timing.
	Stacks []*skymap.PatchExposure
}

// Runner is one labelled measurement — one row of Fig 11 or Fig 12. The
// label is usually the engine's name; SciDB binds two ingest paths
// ("SciDB-1" from_array, "SciDB-2" aio_input) and an incremental
// co-addition ("SciDB-incremental") beside the plain one. Run does the
// engine's setup and the measured step on cl (a fresh cluster) and
// returns the step's virtual duration.
type Runner struct {
	Label string
	Run   func(in Input, cl *cluster.Cluster, model *cost.Model) (vtime.Duration, error)
}

// UseNeuro and UseAstro are the Table 1 use-case keys.
const (
	UseNeuro = "Neuroscience"
	UseAstro = "Astronomy"
)

// ErrUnsupported is the typed "this engine does not do that" error:
// unknown engine names, (engine, workload) pairs outside the
// capability matrix, and system filters that empty an experiment's
// engine set all wrap it, so callers can distinguish "not applicable"
// from a real failure with errors.Is.
var ErrUnsupported = errors.New("engine: unsupported")

// Unsupported wraps ErrUnsupported with context.
func Unsupported(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrUnsupported)...)
}

// MemFloor is the per-node memory floor for end-to-end experiment
// clusters: 10× the workload's input model bytes spread across the
// nodes. Speedup experiments scale task counts beyond the paper's
// data:memory ratio, so the budget grows with the workload instead of
// starving large sweeps (fig15 studies memory pressure explicitly with
// its own budget).
func MemFloor(inputModelBytes int64, nodes int) int64 {
	return 10 * inputModelBytes / int64(nodes)
}

var registry = map[string]Engine{}

// Register adds an engine to the registry; it panics on a duplicate
// name (two registrations claiming one system is a build bug, not a
// data condition).
func Register(e Engine) {
	if _, dup := registry[e.Name()]; dup {
		panic("engine: duplicate engine " + e.Name())
	}
	registry[e.Name()] = e
}

// Lookup returns the named engine, or an ErrUnsupported-wrapped error
// naming the registered engines.
func Lookup(name string) (Engine, error) {
	if e, ok := registry[name]; ok {
		return e, nil
	}
	names := make([]string, 0, len(registry))
	for _, e := range All() {
		names = append(names, e.Name())
	}
	return nil, Unsupported("engine: unknown engine %q (registered: %v)", name, names)
}

// All returns every registered engine sorted by name.
func All() []Engine {
	out := make([]Engine, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Supporting returns the engines holding cap, ordered by their paper
// rank for that capability (name as tiebreak) — the order the paper's
// corresponding figure lists them.
func Supporting(c Cap) []Engine {
	var out []Engine
	for _, e := range registry {
		if e.Capabilities().Has(c) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].Capabilities()[c], out[j].Capabilities()[c]
		if ri != rj {
			return ri < rj
		}
		return out[i].Name() < out[j].Name()
	})
	return out
}

// Names flattens engines to their names (table row labels).
func Names(engines []Engine) []string {
	out := make([]string, len(engines))
	for i, e := range engines {
		out[i] = e.Name()
	}
	return out
}

// Info is the wire form of one registered engine, shared by the
// daemon's GET /v1/engines and the CLI's `imagebench engines` so the
// two surfaces cannot drift apart.
type Info struct {
	Name         string   `json:"name"`
	Capabilities []string `json:"capabilities"`
	Recovery     string   `json:"recovery"`
}

// Describe returns every registered engine's Info, sorted by name.
func Describe() []Info {
	all := All()
	out := make([]Info, 0, len(all))
	for _, e := range all {
		out = append(out, Info{
			Name:         e.Name(),
			Capabilities: e.Capabilities().Names(),
			Recovery:     string(e.RecoveryKind()),
		})
	}
	return out
}
