package core

import (
	"imagebench/internal/engine"
)

// This file is core's view of the engine registry: every experiment
// that compares systems asks the registry which engines participate
// (engine.Supporting, in paper order) instead of carrying its own
// system-name list, and the profile's Systems allowlist filters that
// set — which is what makes `imagebench -systems` and the sweep's
// systems axis work without touching any experiment.

// engines returns the registry's engines holding cap, in paper order,
// filtered by the profile's Systems allowlist. An allowlist that
// empties the set is reported via engine.ErrUnsupported so callers can
// tell "not applicable under this filter" from a real failure.
func (p Profile) engines(c engine.Cap) ([]engine.Engine, error) {
	out := p.filterEngines(engine.Supporting(c))
	if len(out) == 0 {
		return nil, engine.Unsupported("core: no allowed engine supports %s (systems filter %v)", c, p.Systems)
	}
	return out, nil
}

// filterEngines applies the profile's Systems allowlist (empty = allow
// all), preserving order.
func (p Profile) filterEngines(engines []engine.Engine) []engine.Engine {
	if len(p.Systems) == 0 {
		return engines
	}
	allowed := make(map[string]bool, len(p.Systems))
	for _, s := range p.Systems {
		allowed[s] = true
	}
	var out []engine.Engine
	for _, e := range engines {
		if allowed[e.Name()] {
			out = append(out, e)
		}
	}
	return out
}

// requireEngine gates a per-engine experiment (tuning studies,
// ablations) on its subject engine being registered and allowed by the
// profile's Systems filter.
func (p Profile) requireEngine(name string) (engine.Engine, error) {
	e, err := engine.Lookup(name)
	if err != nil {
		return nil, err
	}
	if len(p.Systems) > 0 {
		found := false
		for _, s := range p.Systems {
			if s == name {
				found = true
				break
			}
		}
		if !found {
			return nil, engine.Unsupported("core: engine %s excluded by systems filter %v", name, p.Systems)
		}
	}
	return e, nil
}

// registerForEngine registers an experiment only when its subject
// engine is in the registry: per-engine tuning studies and ablations
// follow their engine in and out of the build, so deleting an engine
// registration removes its whole experiment surface in one file.
func registerForEngine(name string, e *Experiment) {
	if _, err := engine.Lookup(name); err != nil {
		return
	}
	Register(e)
}
