package core

import (
	"context"
	"fmt"

	"imagebench/internal/astro"
	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/engine"
	"imagebench/internal/neuro"
	"imagebench/internal/synth"
	"imagebench/internal/vtime"
)

// newCluster builds the standard experiment cluster: nodes × 8-core
// machines modeled on r3.2xlarge.
func newCluster(nodes int) *cluster.Cluster {
	return newClusterMem(nodes, 0)
}

// newClusterMem is newCluster with a per-node memory floor (fig15
// studies memory pressure explicitly with its own budget).
func newClusterMem(nodes int, minMemPerNode int64) *cluster.Cluster {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = nodes
	if minMemPerNode > cfg.MemPerNode {
		cfg.MemPerNode = minMemPerNode
	}
	return cluster.New(cfg)
}

// runCluster builds the end-to-end experiment cluster for a workload
// with the given input model size, applying the shared engine.MemFloor
// budget (the end-to-end and fault-tolerance experiments size their
// clusters identically).
func runCluster(nodes int, inputModelBytes int64) *cluster.Cluster {
	return newClusterMem(nodes, engine.MemFloor(inputModelBytes, nodes))
}

// defaultNodes is the paper's base cluster size, scaled down in the quick
// profile.
func defaultNodes(p Profile) int {
	if p.Name == "quick" {
		return 4
	}
	return 16
}

// neuroWorkload generates the synthetic dMRI dataset for the given
// subject count under the profile's geometry. Nothing is cached: every
// call builds a fresh store, which the cells of one experiment then
// share read-only.
func neuroWorkload(p Profile, subjects int) (*neuro.Workload, error) {
	cfg := synth.DefaultNeuro(subjects)
	cfg.NX, cfg.NY, cfg.NZ, cfg.T, cfg.B0 = p.NeuroNX, p.NeuroNY, p.NeuroNZ, p.NeuroT, p.NeuroB0
	return neuro.NewWorkloadCfg(cfg)
}

// astroWorkload builds the synthetic survey dataset for the given visit
// count.
func astroWorkload(p Profile, visits int) (*astro.Workload, error) {
	cfg := synth.DefaultAstro(visits)
	cfg.Sensors, cfg.W, cfg.H, cfg.Sources = p.AstroSensors, p.AstroW, p.AstroH, p.AstroSources
	return astro.NewWorkloadCfg(cfg)
}

// neuroEndToEnd runs the full neuroscience pipeline on one engine and
// returns the virtual runtime (cluster makespan).
func neuroEndToEnd(ctx context.Context, w *neuro.Workload, nodes int, eng engine.Engine) (vtime.Duration, error) {
	cl := runCluster(nodes, w.InputModelBytes())
	res, err := eng.RunNeuro(ctx, w, cl, cost.Default(), engine.Opts{CacheInput: true})
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// astroEndToEnd runs the full astronomy pipeline on one engine and
// returns the virtual runtime.
func astroEndToEnd(ctx context.Context, w *astro.Workload, nodes int, eng engine.Engine) (vtime.Duration, error) {
	cl := runCluster(nodes, w.InputModelBytes())
	res, err := eng.RunAstro(ctx, w, cl, cost.Default(), engine.Opts{})
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// seconds converts a duration to float seconds for table cells.
func seconds(d vtime.Duration) float64 { return d.Seconds() }

// colLabel formats a sweep point (subject or visit count).
func colLabel(n int) string { return fmt.Sprintf("%d", n) }
