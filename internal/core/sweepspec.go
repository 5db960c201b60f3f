package core

import (
	"fmt"
	"path"
	"slices"
	"sort"
	"strings"

	"imagebench/internal/cluster"
	"imagebench/internal/engine"
)

// This file is the profile-override and experiment-pattern plumbing used
// by the sweep engine (internal/sweep): a small set of overridable
// profile knobs, applied as copy-on-write derivations of the built-in
// profiles, and glob expansion over the experiment registry.

// Overrides adjusts the sweep-relevant knobs of a Profile. Nil slices
// mean "keep the profile's value"; a non-nil slice replaces it. These
// are exactly the axes the paper varies between runs: cluster sizes,
// neuroscience subject counts, and astronomy visit counts.
type Overrides struct {
	ClusterNodes  []int `json:"clusterNodes,omitempty"`
	NeuroSubjects []int `json:"neuroSubjects,omitempty"`
	AstroVisits   []int `json:"astroVisits,omitempty"`
	// Failures replaces the profile's fault-scenario set for the ft*
	// experiments (cluster.ParseScenario syntax). One sweep axis point
	// per scenario set lets a single batch grid over fault scenarios —
	// the `imagebench sweep -kill-at ...` axis.
	Failures []string `json:"failures,omitempty"`
	// Systems restricts experiments to the named engines. One sweep
	// axis point per engine set lets a single batch grid over engines —
	// the `imagebench sweep -systems ...` axis.
	Systems []string `json:"systems,omitempty"`
}

// IsZero reports whether the overrides change nothing.
func (o Overrides) IsZero() bool {
	return o.ClusterNodes == nil && o.NeuroSubjects == nil && o.AstroVisits == nil && o.Failures == nil && o.Systems == nil
}

// Validate rejects empty or non-positive sweep points: they would make
// experiments loop over nothing or build degenerate clusters.
func (o Overrides) Validate() error {
	check := func(what string, vs []int) error {
		if vs != nil && len(vs) == 0 {
			return fmt.Errorf("core: override %s is empty (omit it to keep the profile's value)", what)
		}
		for _, v := range vs {
			if v <= 0 {
				return fmt.Errorf("core: override %s contains non-positive value %d", what, v)
			}
		}
		return nil
	}
	if err := check("clusterNodes", o.ClusterNodes); err != nil {
		return err
	}
	if err := check("neuroSubjects", o.NeuroSubjects); err != nil {
		return err
	}
	if err := check("astroVisits", o.AstroVisits); err != nil {
		return err
	}
	if o.Failures != nil && len(o.Failures) == 0 {
		return fmt.Errorf("core: override failures is empty (omit it to keep the profile's scenarios)")
	}
	for _, sc := range o.Failures {
		if _, err := cluster.ParseScenario(sc); err != nil {
			return fmt.Errorf("core: override failures: %w", err)
		}
	}
	if o.Systems != nil && len(o.Systems) == 0 {
		return fmt.Errorf("core: override systems is empty (omit it to run every engine)")
	}
	for _, name := range o.Systems {
		if _, err := engine.Lookup(name); err != nil {
			return fmt.Errorf("core: override systems: %w", err)
		}
	}
	return nil
}

// Label renders the overrides as a stable, human-readable suffix
// ("nodes=4,8 subjects=1"), empty for zero overrides. Derived profile
// names embed it, so two cells of a sweep grid are distinguishable at a
// glance.
func (o Overrides) Label() string {
	var parts []string
	add := func(name string, vs []int) {
		if vs == nil {
			return
		}
		ss := make([]string, len(vs))
		for i, v := range vs {
			ss[i] = fmt.Sprintf("%d", v)
		}
		parts = append(parts, name+"="+strings.Join(ss, ","))
	}
	add("nodes", o.ClusterNodes)
	add("subjects", o.NeuroSubjects)
	add("visits", o.AstroVisits)
	if o.Failures != nil {
		parts = append(parts, "failures="+strings.Join(o.Failures, ";"))
	}
	if o.Systems != nil {
		parts = append(parts, "systems="+strings.Join(o.Systems, ","))
	}
	return strings.Join(parts, " ")
}

// Apply returns a copy of p with the overrides applied. The derived
// profile's Name gains the override label ("quick+nodes=4"), so result
// keys, journals, and sweep grids all distinguish it from the base
// profile; the slices are copied, never shared.
func (p Profile) Apply(o Overrides) Profile {
	if o.IsZero() {
		return p
	}
	out := p
	if o.ClusterNodes != nil {
		out.ClusterNodes = append([]int(nil), o.ClusterNodes...)
	}
	if o.NeuroSubjects != nil {
		out.NeuroSubjects = append([]int(nil), o.NeuroSubjects...)
	}
	if o.AstroVisits != nil {
		out.AstroVisits = append([]int(nil), o.AstroVisits...)
	}
	if o.Failures != nil {
		out.FaultScenarios = append([]string(nil), o.Failures...)
	}
	if o.Systems != nil {
		out.Systems = append([]string(nil), o.Systems...)
	}
	out.Name = p.Name + "+" + strings.ReplaceAll(o.Label(), " ", "+")
	return out
}

// base returns the name of the built-in profile p derives from: its name
// up to the first '+' that Apply adds.
func (p Profile) base() string {
	name, _, _ := strings.Cut(p.Name, "+")
	return name
}

// Axes is a set of override axes, for Experiment.Ignores. The systems
// axis is always read, so no experiment can declare it.
type Axes uint8

const (
	AxisNodes Axes = 1 << iota
	AxisSubjects
	AxisVisits
	AxisFailures
	allAxes = AxisNodes | AxisSubjects | AxisVisits | AxisFailures
)

// String lists the set's axis names ("nodes+failures").
func (a Axes) String() string {
	var names []string
	for i, n := range [...]string{"nodes", "subjects", "visits", "failures"} {
		if a&(1<<i) != 0 {
			names = append(names, n)
		}
	}
	return strings.Join(names, "+")
}

// Canonical returns the profile whose table is p's table, so that cells
// differing only in axes e ignores share one run: quick overridden only
// where p's values on the axes e reads differ from quick's. p comes back
// unchanged if e ignores nothing or p is not quick plus axis values (no
// test holds a declaration true on another base).
func (e *Experiment) Canonical(p Profile) Profile {
	q := Quick()
	rest := func(p Profile) string {
		p.Name, p.ClusterNodes, p.NeuroSubjects, p.AstroVisits, p.FaultScenarios, p.Systems = "", nil, nil, nil, nil, nil
		return p.Fingerprint()
	}
	if e.Ignores == 0 || p.base() != q.Name || rest(p) != rest(q) {
		return p
	}
	return q.Apply(Overrides{
		ClusterNodes:  readValue(e.Ignores&AxisNodes == 0, p.ClusterNodes, q.ClusterNodes),
		NeuroSubjects: readValue(e.Ignores&AxisSubjects == 0, p.NeuroSubjects, q.NeuroSubjects),
		AstroVisits:   readValue(e.Ignores&AxisVisits == 0, p.AstroVisits, q.AstroVisits),
		Failures:      readValue(e.Ignores&AxisFailures == 0, p.FaultScenarios, q.FaultScenarios),
		Systems:       readValue(true, p.Systems, q.Systems),
	})
}

// readValue returns v if the axis is read and v is not the base value b.
func readValue[T comparable](read bool, v, b []T) []T {
	if !read || slices.Equal(v, b) {
		return nil
	}
	return v
}

// ExpandIDs resolves experiment patterns — exact IDs, path.Match globs
// ("fig10*"), or the special pattern "all" — against the registry,
// returning the matching IDs sorted and deduplicated. A pattern that
// matches nothing is an error: a sweep cell silently dropped by a typo
// would otherwise look like a passing sweep.
func ExpandIDs(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("core: no experiment patterns given")
	}
	set := make(map[string]bool)
	for _, pat := range patterns {
		if pat == "all" {
			for _, e := range All() {
				set[e.ID] = true
			}
			continue
		}
		matched := false
		for _, e := range All() {
			ok, err := path.Match(pat, e.ID)
			if err != nil {
				return nil, fmt.Errorf("core: bad experiment pattern %q: %w", pat, err)
			}
			if ok {
				set[e.ID] = true
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("core: experiment pattern %q matches nothing (use -list)", pat)
		}
	}
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out, nil
}
