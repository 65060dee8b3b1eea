package kernel

import (
	"math/rand"
	"testing"

	"credo/internal/gen"
	"credo/internal/graph"
)

// TestCircularBatchLeavesUnwrittenLanes pins the batch half of the sweep
// discipline's carry-forward: a lane a node update does not write —
// clamped at the node, or frozen — neither folds nor publishes, so its
// messages on the node's in-edges stay as last committed, just as a solo
// run that skips a clamped node leaves them. Its effect on beliefs is
// mostly below float32 resolution, so the state itself is checked.
func TestCircularBatchLeavesUnwrittenLanes(t *testing.T) {
	const s, k = 2, 4
	rng := rand.New(rand.NewSource(5))
	b := graph.NewBuilder(s)
	prior := make([]float32, s)
	for i := 0; i < 2; i++ {
		gen.RandomDistribution(rng, prior)
		if _, err := b.AddNode(prior); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]int32{{0, 1}, {1, 0}} {
		m := gen.RandomJointMatrix(rng, s, 0.8)
		if err := b.AddEdge(e[0], e[1], &m); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bs, err := graph.NewBatchState(g, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := bs.Observe(1, 1, 0); err != nil { // lane 1 clamps node 1
		t.Fatal(err)
	}
	active := []bool{true, true, false, true} // lane 2 is frozen

	bk := NewBatch(g, Config{Alpha: 1}, k)
	var sc BatchScratch
	dst := make([]float32, len(bs.Beliefs))
	if _, wrote := bk.NodeUpdateBatch(&sc, dst, 1, bs.Beliefs, bs.Priors, bs.Observed, active); wrote != 2 {
		t.Fatalf("wrote %d lanes, want 2", wrote)
	}
	e := g.InEdges[g.InOffsets[1]] // 0→1, node 1's only in-edge
	u := 1 / float32(s)
	for l := 0; l < k; l++ {
		written := false
		for j := 0; j < s; j++ {
			if bk.bst.next[(int(e)*s+j)*k+l] != u {
				written = true
			}
		}
		if want := l == 0 || l == 3; written != want {
			t.Errorf("lane %d: message published = %v, want %v", l, written, want)
		}
	}
}
