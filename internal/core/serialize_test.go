package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"testing"
)

func TestProfileFingerprint(t *testing.T) {
	if Quick().Fingerprint() != Quick().Fingerprint() {
		t.Error("fingerprint of identical profiles differs")
	}
	if Quick().Fingerprint() == Full().Fingerprint() {
		t.Error("quick and full profiles share a fingerprint")
	}
	mutated := Quick()
	mutated.AstroW++
	if mutated.Fingerprint() == Quick().Fingerprint() {
		t.Error("parameter change did not change the fingerprint")
	}
	if len(Quick().Fingerprint()) != 64 {
		t.Errorf("fingerprint %q is not hex SHA-256", Quick().Fingerprint())
	}
	// It is the hex SHA-256 of the profile's JSON, so no key moves.
	for _, p := range []Profile{Quick(), Full(), Quick().Apply(Overrides{ClusterNodes: []int{5}, Systems: []string{"Spark"}})} {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got, want := p.Fingerprint(), hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s fingerprint %s, want %s", p.Name, got, want)
		}
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"quick", "full"} {
		p, err := ProfileByName(name)
		if err != nil || p.Name != name {
			t.Errorf("ProfileByName(%s) = %+v, %v", name, p, err)
		}
	}
	if _, err := ProfileByName("huge"); err == nil {
		t.Error("ProfileByName(huge) should fail")
	}
}

// TestTableJSONRoundTrip proves NaN (the paper's NA cells) survives the
// JSON encoding the result cache uses, as null.
func TestTableJSONRoundTrip(t *testing.T) {
	tab := NewTable("rt", "virtual s", []string{"a", "b"}, []string{"1", "2"})
	tab.Set("a", "1", 1.5)
	tab.Set("b", "2", 2e6)
	tab.Notes = []string{"note"}

	b, err := json.Marshal(tab)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var raw map[string]any
	json.Unmarshal(b, &raw)
	cells := raw["cells"].([]any)[0].([]any)
	if cells[1] != nil {
		t.Errorf("NA cell encoded as %v, want null", cells[1])
	}

	var got Table
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Title != "rt" || got.Unit != "virtual s" {
		t.Errorf("metadata lost: %+v", got)
	}
	if got.Get("a", "1") != 1.5 || got.Get("b", "2") != 2e6 {
		t.Error("cell values lost")
	}
	if !math.IsNaN(got.Get("a", "2")) || !math.IsNaN(got.Get("b", "1")) {
		t.Error("null cells did not come back as NaN")
	}
	if len(got.Notes) != 1 || got.Notes[0] != "note" {
		t.Errorf("notes lost: %v", got.Notes)
	}
}

func TestTableUnmarshalRejectsRagged(t *testing.T) {
	var tab Table
	bad := `{"title":"x","unit":"s","columns":["1","2"],"rows":["a"],"cells":[[1]]}`
	if err := json.Unmarshal([]byte(bad), &tab); err == nil {
		t.Error("ragged cells accepted")
	}
	bad = `{"title":"x","unit":"s","columns":["1"],"rows":["a","b"],"cells":[[1]]}`
	if err := json.Unmarshal([]byte(bad), &tab); err == nil {
		t.Error("missing row accepted")
	}
}

func TestVirtualSeconds(t *testing.T) {
	tab := NewTable("v", "virtual s", []string{"a"}, []string{"1", "2"})
	tab.Set("a", "1", 10)
	if got := tab.VirtualSeconds(); got != 10 {
		t.Errorf("VirtualSeconds = %v, want 10 (NA cells excluded)", got)
	}
	gb := NewTable("g", "GB", []string{"a"}, []string{"1"})
	gb.Set("a", "1", 99)
	if got := gb.VirtualSeconds(); got != 0 {
		t.Errorf("non-time table reported %v virtual seconds", got)
	}
}

func TestRunContext(t *testing.T) {
	ran := 0
	e := &Experiment{
		ID: "ctx-test", Title: "t", Paper: "p",
		Run: func(ctx context.Context, p Profile) (*Table, error) {
			ran++
			return NewTable("t", "s", []string{"a"}, []string{"1"}), nil
		},
	}
	if _, err := e.RunContext(context.Background(), Quick()); err != nil || ran != 1 {
		t.Fatalf("RunContext = %v (ran %d)", err, ran)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RunContext(canceled, Quick()); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled RunContext = %v, want context.Canceled", err)
	}
	if ran != 1 {
		t.Errorf("canceled context still ran the experiment (%d runs)", ran)
	}

	// Cancellation arriving mid-run is reported once the run returns.
	midway := &Experiment{
		ID: "ctx-mid", Title: "t", Paper: "p",
		Run: func(ctx context.Context, p Profile) (*Table, error) {
			cancelSelf()
			return NewTable("t", "s", []string{"a"}, []string{"1"}), nil
		},
	}
	ctx, c2 := context.WithCancel(context.Background())
	cancelSelf = c2
	if _, err := midway.RunContext(ctx, Quick()); !errors.Is(err, context.Canceled) {
		t.Errorf("mid-run cancellation = %v, want context.Canceled", err)
	}
}

// cancelSelf lets the mid-run cancellation test cancel its own context
// from inside Run.
var cancelSelf context.CancelFunc
