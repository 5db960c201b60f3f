package core

import (
	"context"
	"testing"
)

// Override profiles keep quick's 4-node clusters, so these points put a
// Spark stage's retry on a node the stage already finished partitions
// on. Each must recover and return a table, not fail with the node the
// scenario killed: the narrow-stage epoch clears subjects=2 and visits=4,
// the shuffle-stage epoch clears visits=7.
func TestFaultRecoveryAtQuickOverrideSizes(t *testing.T) {
	for _, c := range []struct {
		id string
		o  Overrides
	}{
		{"ftneuro", Overrides{NeuroSubjects: []int{2}}},
		{"ftastro", Overrides{AstroVisits: []int{4}}},
		{"ftastro", Overrides{AstroVisits: []int{7}}},
	} {
		e, err := Lookup(c.id)
		if err != nil {
			t.Fatal(err)
		}
		p := Quick().Apply(c.o)
		tab, err := e.RunContext(context.Background(), p)
		if err != nil {
			t.Errorf("%s under %s: %v", c.id, p.Name, err)
		} else if tab == nil || len(tab.Cells) == 0 {
			t.Errorf("%s under %s: empty table", c.id, p.Name)
		}
	}
}
