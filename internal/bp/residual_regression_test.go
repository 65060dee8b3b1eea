package bp

import (
	"testing"

	"credo/internal/bif"
	"credo/internal/graph"
)

// TestResidualSprinklerUpdateCounts locks the exact, deterministic work
// profile of the sequential residual engine on the sprinkler network as
// an MRF. The profile is the estimate discipline's: successors are pushed
// at the sender's applied residual and only seeds and pops compute
// candidates, so edge folds count seeds and pops (62), pushes count the
// seeds and every successor of every applied update (46), and pops whose
// recomputed residual is already converged apply nothing (6 wasted). The
// converged-successor bug this test once guarded lived in the eager
// successor refresh, which is deleted.
func TestResidualSprinklerUpdateCounts(t *testing.T) {
	g, err := bif.ParseFile("../bif/testdata/sprinkler.bif")
	if err != nil {
		t.Fatal(err)
	}
	g, err = g.Undirected()
	if err != nil {
		t.Fatal(err)
	}
	oracle := g.Clone()
	ores := RunNode(oracle, Options{})
	if !ores.Converged {
		t.Fatal("oracle sweep did not converge")
	}

	res := RunResidual(g, Options{})
	if !res.Converged {
		t.Fatalf("residual run did not converge (final delta %g)", res.FinalDelta)
	}
	want := struct {
		iterations     int
		nodesProcessed int64
		edgesProcessed int64
		queuePushes    int64
		wastedUpdates  int64
	}{
		iterations:     6,
		nodesProcessed: 21,
		edgesProcessed: 62,
		queuePushes:    46,
		wastedUpdates:  6,
	}
	if res.Iterations != want.iterations {
		t.Errorf("Iterations = %d, want %d", res.Iterations, want.iterations)
	}
	if res.Ops.NodesProcessed != want.nodesProcessed {
		t.Errorf("NodesProcessed = %d, want %d", res.Ops.NodesProcessed, want.nodesProcessed)
	}
	if res.Ops.EdgesProcessed != want.edgesProcessed {
		t.Errorf("EdgesProcessed = %d, want %d", res.Ops.EdgesProcessed, want.edgesProcessed)
	}
	if res.Ops.QueuePushes != want.queuePushes {
		t.Errorf("QueuePushes = %d, want %d", res.Ops.QueuePushes, want.queuePushes)
	}
	if res.Ops.WastedUpdates != want.wastedUpdates {
		t.Errorf("WastedUpdates = %d, want %d", res.Ops.WastedUpdates, want.wastedUpdates)
	}
	// The schedule must not move the fixpoint.
	for v := int32(0); v < int32(g.NumNodes); v++ {
		if d := graph.L1Diff(g.Belief(v), oracle.Belief(v)); d > 2e-2 {
			t.Errorf("node %d diverges from the sweep oracle by %g", v, d)
		}
	}
}
