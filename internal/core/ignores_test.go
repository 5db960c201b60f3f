package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// ignoredAxisPoints are the override points each axis is perturbed to:
// the quick profile's own value, the sweep-astro benchmark's node pairs
// (lo, 17-lo), single node counts as fed-tiny and serve-hot use them,
// and values off the quick grid for the other axes.
func ignoredAxisPoints() map[Axes][]Overrides {
	q := Quick()
	nodes := []Overrides{{ClusterNodes: q.ClusterNodes}}
	for lo := 2; lo <= 8; lo++ {
		nodes = append(nodes, Overrides{ClusterNodes: []int{lo, 17 - lo}})
	}
	for _, n := range []int{2, 3, 16, 64, 2000} {
		nodes = append(nodes, Overrides{ClusterNodes: []int{n}})
	}
	return map[Axes][]Overrides{
		AxisNodes:    nodes,
		AxisSubjects: {{NeuroSubjects: q.NeuroSubjects}, {NeuroSubjects: []int{2, 3}}, {NeuroSubjects: []int{5}}, {NeuroSubjects: []int{1, 25}}},
		AxisVisits:   {{AstroVisits: q.AstroVisits}, {AstroVisits: []int{3, 6}}, {AstroVisits: []int{5}}, {AstroVisits: []int{2, 24}}},
		AxisFailures: {{Failures: q.FaultScenarios}, {Failures: []string{"baseline", "kill:1@50%"}}, {Failures: []string{"baseline"}},
			{Failures: []string{"slow:2@10%*2", "kill:1@30%+kill:2@55%"}}},
	}
}

func tableBytes(t *testing.T, e *Experiment, p Profile) []byte {
	t.Helper()
	tab, err := e.RunContext(context.Background(), p)
	if err != nil {
		t.Fatalf("%s under %s: %v", e.ID, p.Name, err)
	}
	b, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestIgnoredAxesAreNotRead holds every Ignores declaration true: under
// any override of an axis it declares ignored, an experiment's table is
// byte-identical to its quick-profile table. A false declaration would
// let the scheduler serve one cell another cell's table.
func TestIgnoredAxesAreNotRead(t *testing.T) {
	points := ignoredAxisPoints()
	q := Quick()
	for _, e := range All() {
		if e.Ignores == 0 {
			continue
		}
		want := tableBytes(t, e, q)
		for a := AxisNodes; a <= AxisFailures; a <<= 1 {
			if e.Ignores&a == 0 {
				continue
			}
			for _, o := range points[a] {
				if got := tableBytes(t, e, q.Apply(o)); !bytes.Equal(got, want) {
					t.Errorf("%s declares it ignores %s, but its table under %s differs from quick's:\n%s\nwant\n%s",
						e.ID, a, o.Label(), got, want)
				}
			}
		}
	}
}

func TestCanonical(t *testing.T) {
	q, f := Quick(), Full()
	nodeBlind := &Experiment{ID: "zz-test-canonical", Ignores: AxisNodes | AxisVisits}
	type canonicalCase struct {
		name    string
		e       *Experiment
		p, want Profile
	}
	cases := []canonicalCase{
		{"declares nothing", &Experiment{ID: "zz-test-reads-all"}, q.Apply(Overrides{ClusterNodes: []int{5}}), q.Apply(Overrides{ClusterNodes: []int{5}})},
		{"base", nodeBlind, q, q},
		{"ignored axis only", nodeBlind, q.Apply(Overrides{ClusterNodes: []int{5, 12}}), q},
		{"two ignored axes", nodeBlind, q.Apply(Overrides{ClusterNodes: []int{5}, AstroVisits: []int{3}}), q},
		{"systems are kept", nodeBlind, q.Apply(Overrides{ClusterNodes: []int{5}, Systems: []string{"Spark", "Myria"}}),
			q.Apply(Overrides{Systems: []string{"Spark", "Myria"}})},
		{"read axes are kept", nodeBlind, q.Apply(Overrides{ClusterNodes: []int{5}, NeuroSubjects: []int{2}, Failures: []string{"baseline", "kill:1@30%+kill:2@55%"}}),
			q.Apply(Overrides{NeuroSubjects: []int{2}, Failures: []string{"baseline", "kill:1@30%+kill:2@55%"}})},
		{"read axis only", nodeBlind, q.Apply(Overrides{NeuroSubjects: []int{2}}), q.Apply(Overrides{NeuroSubjects: []int{2}})},
		{"read axis at quick's value", nodeBlind, q.Apply(Overrides{ClusterNodes: []int{5}, NeuroSubjects: q.NeuroSubjects}), q},
		// No test holds a declaration true on the full profile.
		{"full base", nodeBlind, f.Apply(Overrides{ClusterNodes: []int{64}}), f.Apply(Overrides{ClusterNodes: []int{64}})},
	}
	// Hand-rolled profiles: values decide, not the name's spelling, so
	// only another base or another non-axis field keeps p as it is.
	renamed := q.Apply(Overrides{ClusterNodes: []int{5}})
	renamed.Name = "mine+nodes=5"
	regeared := q.Apply(Overrides{ClusterNodes: []int{5}})
	regeared.AstroW = 64
	for _, p := range []Profile{renamed, regeared} {
		cases = append(cases, canonicalCase{"hand-rolled " + p.Name, nodeBlind, p, p})
	}
	relabeled := q.Apply(Overrides{ClusterNodes: []int{5}})
	relabeled.ClusterNodes = []int{6}
	quickOnly := q
	quickOnly.ClusterNodes = []int{5}
	for _, p := range []Profile{relabeled, quickOnly} {
		cases = append(cases, canonicalCase{"quick plus values " + p.Name, nodeBlind, p, q})
	}
	for _, c := range cases {
		got := c.e.Canonical(c.p)
		if got.Fingerprint() != c.want.Fingerprint() {
			t.Errorf("%s: Canonical(%+v) = %+v, want %+v", c.name, c.p, got, c.want)
		}
		if again := c.e.Canonical(got); again.Fingerprint() != got.Fingerprint() {
			t.Errorf("%s: Canonical is not idempotent: %s then %s", c.name, got.Name, again.Name)
		}
	}
}

func TestAxesString(t *testing.T) {
	if got := (AxisNodes | AxisFailures).String(); got != "nodes+failures" {
		t.Errorf("String = %q", got)
	}
}
