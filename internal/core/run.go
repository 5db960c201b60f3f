package core

import (
	"context"
	"embed"
	"fmt"
	"io/fs"
	"sync"

	"imagebench/internal/astro"
	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/engine"
	"imagebench/internal/neuro"
	"imagebench/internal/objstore"
	"imagebench/internal/synth"
	"imagebench/internal/vtime"
)

// model is the one cost model every experiment runs on, passed down to
// every engine run; nothing writes to it.
var model = cost.Default()

//go:embed testdata/golden/*.json testdata/full-profile.json
var committed embed.FS

// Provenance returns what every table depends on besides its experiment
// and profile, for results.Key: a copy of the cost model, and the
// committed tables that pin the experiments' output.
func Provenance() (cost.Model, fs.FS) { return *model, committed }

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
// profile and every profile derived from it.
func defaultNodes(p Profile) int {
	if p.base() == "quick" {
		return 4
	}
	return 16
}

// The experiments' inputs are pure functions of their configuration,
// the way the paper stages each dataset once and points every system
// at it: one read-only workload per distinct config value per process,
// built by the first caller (the fanned-out cells that ask for the same
// one wait for it) and kept within inputBudget. The config is the key,
// not the profile's name: fig10h raises AstroSensors from its largest
// cluster size, so one name maps to many configs. Nothing may write to
// a workload or its store once it is built.
var (
	inputsMu   sync.Mutex
	inputs     = map[any]*input{}
	inputStats InputTraffic // under inputsMu
)

// input is one config's workload: every caller that finds it, built or
// still building, gets what its one build returned.
type input struct {
	get func() (any, error) // sync.OnceValues of the build
}

// inputBudget bounds the encoded object bytes the shared inputs hold.
// A quick pass holds 15.6 MB in six configs, beside 17.7 MB of decodes
// those objects hold, which are not counted; a sweep-astro round holds
// 46.9 MB in nine, seven of them fig10h surveys. A full-profile pass
// builds 46 inputs, 393 MB in all (fig10h's 86-sensor survey alone is
// 65.4 MB), and forgets every input six times.
const inputBudget = 64 << 20

// inputKinds labels the shared inputs' counters, by use case.
var inputKinds = [...]string{"neuro", "astro"}

const (
	neuroInput = iota
	astroInput
)

// InputTraffic is the shared inputs' traffic since process start.
type InputTraffic struct {
	Kinds  [len(inputKinds)]KindTraffic // follows InputKinds
	Resets uint64                       // times every input was forgotten to stay in budget
	Bytes  int64                        // held now, never above the budget
}

// KindTraffic is one kind's traffic. A call that finds its config,
// built or still building, is a hit; a miss is a call that built it.
type KindTraffic struct {
	Hits, Misses uint64
	Bytes        int64 // held now
}

// InputStats reports the shared inputs' traffic since process start.
func InputStats() InputTraffic {
	inputsMu.Lock()
	defer inputsMu.Unlock()
	return inputStats
}

// InputKinds lists the labels of InputStats' kinds, in counter order.
func InputKinds() []string { return inputKinds[:] }

// sharedInput returns the process's workload for cfg, building it if
// nobody has. A failed or panicking build reaches every caller that
// waited on it and is forgotten, so the next caller builds again; a
// workload that holds more bytes than the whole budget is served and
// not kept.
func sharedInput[C comparable, W any](kind int, cfg C, build func(C) (W, error), bytes func(W) int64) (W, error) {
	inputsMu.Lock()
	in := inputs[cfg]
	if in != nil {
		inputStats.Kinds[kind].Hits++
	} else {
		in = &input{}
		in.get = sync.OnceValues(func() (any, error) {
			kept := false
			defer func() { // also on a panic in build
				if !kept {
					inputsMu.Lock()
					if inputs[cfg] == in { // else a reset forgot it, and another caller may have claimed cfg since
						delete(inputs, cfg)
					}
					inputsMu.Unlock()
				}
			}()
			w, err := build(cfg)
			if err != nil {
				return w, err
			}
			if n := bytes(w); n <= inputBudget {
				keep(cfg, in, kind, n)
				kept = true
			}
			return w, nil
		})
		inputs[cfg] = in
		inputStats.Kinds[kind].Misses++
	}
	inputsMu.Unlock()
	v, err := in.get()
	w, _ := v.(W)
	return w, err
}

// keep accounts a built input against the budget. An insert that would
// pass it forgets every input first: the working set of a pass fits
// several times over, so eviction order would be bookkeeping for a case
// that only an unrelated, larger workload in the same process can
// reach. Workloads already handed out stay valid; inputs still building
// reach their waiters through the input itself and come back here when
// built.
func keep(cfg any, in *input, kind int, n int64) {
	inputsMu.Lock()
	defer inputsMu.Unlock()
	if inputStats.Bytes+n > inputBudget {
		clear(inputs)
		inputStats.Bytes = 0
		for k := range inputStats.Kinds {
			inputStats.Kinds[k].Bytes = 0
		}
		inputStats.Resets++
	}
	if cur, ok := inputs[cfg]; ok && cur != in {
		return // rebuilt after a reset; the first to finish is kept
	}
	inputs[cfg] = in
	inputStats.Bytes += n
	inputStats.Kinds[kind].Bytes += n
}

// storeBytes is what a staged dataset holds: its encoded objects.
func storeBytes(st *objstore.Store) (n int64) {
	for _, key := range st.List("") {
		obj, _ := st.Get(key) // listed a line above
		n += int64(len(obj.Data))
	}
	return n
}

// neuroWorkload returns the synthetic dMRI dataset for the given
// subject count under the profile's geometry.
func neuroWorkload(p Profile, subjects int) (*neuro.Workload, error) {
	cfg := synth.DefaultNeuro(subjects)
	cfg.NX, cfg.NY, cfg.NZ, cfg.T, cfg.B0 = p.NeuroNX, p.NeuroNY, p.NeuroNZ, p.NeuroT, p.NeuroB0
	return sharedInput(neuroInput, cfg, neuro.NewWorkloadCfg, func(w *neuro.Workload) int64 { return storeBytes(w.Store) })
}

// astroWorkload returns the synthetic survey dataset for the given
// visit count.
func astroWorkload(p Profile, visits int) (*astro.Workload, error) {
	cfg := synth.DefaultAstro(visits)
	cfg.Sensors, cfg.W, cfg.H, cfg.Sources = p.AstroSensors, p.AstroW, p.AstroH, p.AstroSources
	return sharedInput(astroInput, cfg, astro.NewWorkloadCfg, func(w *astro.Workload) int64 { return storeBytes(w.Store) })
}

// neuroEndToEnd runs the full neuroscience pipeline on one engine and
// returns the virtual runtime (cluster makespan).
func neuroEndToEnd(ctx context.Context, w *neuro.Workload, nodes int, eng engine.Engine) (vtime.Duration, error) {
	cl := runCluster(nodes, w.InputModelBytes())
	res, err := eng.RunNeuro(ctx, w, cl, model, engine.Opts{CacheInput: true})
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// astroEndToEnd runs the full astronomy pipeline on one engine and
// returns the virtual runtime.
func astroEndToEnd(ctx context.Context, w *astro.Workload, nodes int, eng engine.Engine) (vtime.Duration, error) {
	cl := runCluster(nodes, w.InputModelBytes())
	res, err := eng.RunAstro(ctx, w, cl, model, engine.Opts{})
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// seconds converts a duration to float seconds for table cells.
func seconds(d vtime.Duration) float64 { return d.Seconds() }

// colLabel formats a sweep point (subject or visit count).
func colLabel(n int) string { return fmt.Sprintf("%d", n) }
