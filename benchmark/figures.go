package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/obs"
	"imagebench/internal/volume"
)

// heldOut is the experiment the figures workload leaves out: fig12c
// cannot complete on two or more cores until the stream-ordering fix
// lands, and would add about 12 s the day it does (see README, Known
// holes).
const heldOut = "fig12c"

// tableJSON is the byte form every verification compares: the table as
// the golden files and the CLI's -json write it.
func tableJSON(t *core.Table) ([]byte, error) {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

type figuresInst struct {
	e      *env
	ids    []string
	golden map[string][]byte

	// Filled by round, read by counters.
	expMs    map[string]float64
	virtualS float64
	arena    volume.ArenaStats
}

func setupFigures(ctx context.Context, e *env) (instance, error) {
	var ids []string
	for _, x := range core.All() {
		if x.ID != heldOut {
			ids = append(ids, x.ID)
		}
	}
	return newFiguresInst(e, ids)
}

// newFiguresInst loads the golden tables of ids, the reference every
// run is compared with.
func newFiguresInst(e *env, ids []string) (*figuresInst, error) {
	f := &figuresInst{e: e, ids: ids, golden: map[string][]byte{}, expMs: map[string]float64{}}
	for _, id := range ids {
		b, err := os.ReadFile(filepath.Join(e.root, "internal", "core", "testdata", "golden", id+".json"))
		if err != nil {
			return nil, fmt.Errorf("figures: golden for %s: %w", id, err)
		}
		f.golden[id] = b
	}
	return f, nil
}

func (f *figuresInst) round(ctx context.Context, r *round) {
	arena0 := volume.Scratch.Stats()
	f.virtualS = 0
	pass := time.Now()
	for _, id := range f.ids {
		t0 := time.Now()
		vs, err := f.one(ctx, id)
		f.expMs[id] = float64(time.Since(t0).Nanoseconds()) / 1e6
		f.virtualS += vs
		if err != nil {
			r.ops(1, 1)
			r.fail("%s: %v", id, err)
			continue
		}
		r.ops(1, 0)
	}
	// The caller's wait is the pass: `imagebench all` returns when the
	// last experiment has.
	r.waits(float64(time.Since(pass).Nanoseconds()) / 1e6)
	a := volume.Scratch.Stats()
	f.arena = volume.ArenaStats{Gets: a.Gets - arena0.Gets, Puts: a.Puts - arena0.Puts, Misses: a.Misses - arena0.Misses}
}

// one runs one experiment the way the CLI does and verifies it: shape
// check, then byte equality with the golden table.
func (f *figuresInst) one(ctx context.Context, id string) (virtualS float64, err error) {
	tr := f.e.tr
	op := tr.start(f.e.parent, "op "+id, id)
	defer op.end()

	x, err := core.Lookup(id)
	if err != nil {
		return 0, err
	}
	// In a traced round the program's own spans (engine runs, stages)
	// are collected through its public seam and hung under this call.
	var prog *obs.Tracer
	runCtx := ctx
	if tr != nil {
		prog = obs.NewTracer()
		runCtx = obs.WithTracer(ctx, prog)
	}
	since := time.Now()
	sp := tr.start(op, "core.RunContext", id)
	tab, err := x.RunContext(runCtx, core.Quick())
	sp.end()
	if prog != nil {
		tr.harvest(sp, prog.Spans(), since)
	}
	if err != nil {
		return 0, err
	}
	virtualS = tab.VirtualSeconds()

	sp = tr.start(op, "core.Check", id)
	err = x.Check(tab)
	sp.end()
	if err != nil {
		return virtualS, fmt.Errorf("shape check: %w", err)
	}
	sp = tr.start(op, "core.Table.MarshalJSON", id)
	got, err := tableJSON(tab)
	sp.end()
	if err != nil {
		return virtualS, err
	}
	if !bytes.Equal(got, f.golden[id]) {
		return virtualS, fmt.Errorf("table differs from golden (%d bytes, golden %d)", len(got), len(f.golden[id]))
	}
	return virtualS, nil
}

func (f *figuresInst) counters(_ context.Context, m map[string]float64) {
	for _, id := range expSpanIDs {
		m["core.exp_ms."+id] = f.expMs[id]
	}
	m["core.virtual_s_total"] = f.virtualS
	if f.arena.Gets > 0 {
		m["volume.arena_hit_ratio"] = 1 - float64(f.arena.Misses)/float64(f.arena.Gets)
	}
}

// sizes: one caller, no service layers.
func (f *figuresInst) sizes() (int, int, int) { return 1, 0, 0 }

func (f *figuresInst) close() {}
