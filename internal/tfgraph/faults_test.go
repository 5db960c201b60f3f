package tfgraph

import (
	"fmt"
	"testing"
	"time"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/objstore"
	"imagebench/internal/vtime"
)

func stagedSession(nodes, nObjects int, faults ...cluster.Fault) (*Session, *cluster.Cluster) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = nodes
	cl := cluster.New(cfg)
	if len(faults) > 0 {
		if err := cl.Inject(faults...); err != nil {
			panic(err)
		}
	}
	store := objstore.New()
	for i := 0; i < nObjects; i++ {
		store.Put(fmt.Sprintf("t/%03d", i), nil, 1<<20)
	}
	return NewSession(cl, store, cost.Default()), cl
}

func decodeT(obj objstore.Object) ([]Tensor, error) {
	return []Tensor{{Value: obj.Key, Size: obj.Size()}}, nil
}

func tagT(t Tensor) (Tensor, error) {
	return Tensor{Value: t.Value.(string) + "!", Size: t.Size}, nil
}

// TestDeviceDeathRestartsFromCheckpoint: a device dying mid-step costs
// TensorFlow everything since the last checkpoint — the session restart
// is paid, the checkpoint is read back, and the whole step re-runs on
// the surviving devices. The step's results are unchanged.
func TestDeviceDeathRestartsFromCheckpoint(t *testing.T) {
	base, bcl := stagedSession(4, 16)
	items, _, err := base.Ingest("t/", decodeT)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := base.RunStep("work", cost.Denoise, items, StepOpts{}, tagT)
	if err != nil {
		t.Fatal(err)
	}
	baseline := vtime.Duration(bcl.Makespan())

	// Startup 15s + master ingest; the denoise batches run from ~15.5s,
	// so a kill at 16.5s lands mid-step.
	killAt := vtime.Time(16500 * time.Millisecond)
	sess, fcl := stagedSession(4, 16, cluster.Fault{Kind: cluster.FaultKill, Node: 1, At: killAt})
	items2, _, err := sess.Ingest("t/", decodeT)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := sess.RunStep("work", cost.Denoise, items2, StepOpts{}, tagT)
	if err != nil {
		t.Fatalf("checkpoint-restart did not recover: %v", err)
	}
	if sess.restarts != 1 {
		t.Errorf("%d restarts, want 1", sess.restarts)
	}
	if len(got) != len(want) {
		t.Fatalf("restarted step returned %d tensors, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Value != want[i].Value {
			t.Errorf("tensor %d = %v, want %v", i, got[i].Value, want[i].Value)
		}
	}
	recovered := vtime.Duration(fcl.Makespan())
	if recovered <= baseline {
		t.Errorf("device death was free: makespan %v vs baseline %v", recovered, baseline)
	}
	// The restart pays the session startup again after the kill.
	if min := vtime.Duration(killAt) + vtime.Duration(15*time.Second); recovered <= min {
		t.Errorf("restart skipped the process restart cost: makespan %v, want > %v", recovered, min)
	}
}
