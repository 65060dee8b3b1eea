package poolbp

import (
	"fmt"
	"math"
	"testing"

	"credo/internal/bp"
	"credo/internal/gen"
	"credo/internal/graph"
	"credo/internal/kernel"
)

// laneEvidence mirrors the bp package's batch-test evidence spread: lane
// 0 evidence-free, odd lanes one clamp, lanes ≥ 4 two.
func laneEvidence(lane, numNodes, states int) [][2]int {
	if lane == 0 {
		return nil
	}
	ev := [][2]int{{(lane * 7) % numNodes, lane % states}}
	if lane >= 4 {
		ev = append(ev, [2]int{(lane*13 + 3) % numNodes, (lane + 1) % states})
	}
	return ev
}

// TestPoolBatchLaneEquivalence pins the parallel batch against the solo
// pool engine: every lane of a pool batch must be bitwise the solo
// RunNode of its query at the same CheckEvery — the pool's shard-ordered
// delta reduction and Jacobi double buffer make both sides exact — and
// that must hold at every worker count.
func TestPoolBatchLaneEquivalence(t *testing.T) {
	for _, c := range []struct {
		states     int
		k          int
		checkEvery int
		variant    kernel.Variant
	}{
		{2, 8, 1, kernel.VariantVanilla},
		{2, 8, 4, kernel.VariantVanilla},
		{3, 8, 1, kernel.VariantDamped},
		{3, 8, 4, kernel.VariantCircular},
		{5, 32, 1, kernel.VariantVanilla},
	} {
		name := fmt.Sprintf("states=%d/k=%d/check=%d/variant=%v", c.states, c.k, c.checkEvery, c.variant)
		t.Run(name, func(t *testing.T) {
			base, err := gen.Synthetic(150, 600, gen.Config{Seed: 9, States: c.states, Shared: c.states == 2})
			if err != nil {
				t.Fatalf("Synthetic: %v", err)
			}
			opts := Options{
				Options:    bp.Options{Variant: c.variant},
				Workers:    4,
				CheckEvery: c.checkEvery,
			}

			bs, err := graph.NewBatchState(base, c.k)
			if err != nil {
				t.Fatalf("NewBatchState: %v", err)
			}
			for l := 0; l < c.k; l++ {
				for _, e := range laneEvidence(l, base.NumNodes, c.states) {
					if err := bs.Observe(l, int32(e[0]), e[1]); err != nil {
						t.Fatalf("Observe: %v", err)
					}
				}
			}
			res := RunBatch(base, bs, opts)

			lane := make([]float32, base.NumNodes*base.States)
			for l := 0; l < c.k; l++ {
				sg := base.Clone()
				for _, e := range laneEvidence(l, base.NumNodes, c.states) {
					if err := sg.Observe(int32(e[0]), e[1]); err != nil {
						t.Fatalf("solo Observe: %v", err)
					}
				}
				sres := RunNode(sg, opts)
				lr := res.Lanes[l]
				if lr.Iterations != sres.Iterations || lr.Converged != sres.Converged {
					t.Errorf("lane %d: iterations/converged = %d/%v, solo %d/%v",
						l, lr.Iterations, lr.Converged, sres.Iterations, sres.Converged)
				}
				if math.Float32bits(lr.FinalDelta) != math.Float32bits(sres.FinalDelta) {
					t.Errorf("lane %d: final delta %g, solo %g", l, lr.FinalDelta, sres.FinalDelta)
				}
				bs.ExtractLane(l, lane)
				for i := range lane {
					if math.Float32bits(lane[i]) != math.Float32bits(sg.Beliefs[i]) {
						t.Fatalf("lane %d: belief[%d] = %g, solo %g (not bitwise)",
							l, i, lane[i], sg.Beliefs[i])
					}
				}
			}
		})
	}
}

// TestPoolBatchWorkerDeterminism pins the worker-count independence of
// the batched pool: the shard count derives from the node count alone
// and per-shard per-lane deltas reduce in shard order, so 1, 3 and 8
// workers must produce bitwise-identical batches.
func TestPoolBatchWorkerDeterminism(t *testing.T) {
	base, err := gen.Synthetic(200, 900, gen.Config{Seed: 21, States: 3, Shared: false})
	if err != nil {
		t.Fatalf("Synthetic: %v", err)
	}
	const k = 8
	run := func(workers int) (*graph.BatchState, bp.BatchResult) {
		bs, err := graph.NewBatchState(base, k)
		if err != nil {
			t.Fatalf("NewBatchState: %v", err)
		}
		for l := 0; l < k; l++ {
			for _, e := range laneEvidence(l, base.NumNodes, 3) {
				if err := bs.Observe(l, int32(e[0]), e[1]); err != nil {
					t.Fatalf("Observe: %v", err)
				}
			}
		}
		return bs, RunBatch(base, bs, Options{Workers: workers})
	}
	refState, refRes := run(1)
	for _, workers := range []int{3, 8} {
		st, res := run(workers)
		for l := 0; l < k; l++ {
			if res.Lanes[l] != refRes.Lanes[l] {
				t.Errorf("workers=%d lane %d: %+v, want %+v", workers, l, res.Lanes[l], refRes.Lanes[l])
			}
		}
		for i := range st.Beliefs {
			if math.Float32bits(st.Beliefs[i]) != math.Float32bits(refState.Beliefs[i]) {
				t.Fatalf("workers=%d: belief[%d] = %g, 1-worker %g (not bitwise)",
					workers, i, st.Beliefs[i], refState.Beliefs[i])
			}
		}
	}
}
