package poolbp

import (
	"math"
	"sync/atomic"
	"testing"

	"credo/internal/bp"
	"credo/internal/gen"
	"credo/internal/graph"
	"credo/internal/kernel"
)

func maxBeliefDiff(a, b *graph.Graph) float64 {
	var maxd float64
	for i := range a.Beliefs {
		d := math.Abs(float64(a.Beliefs[i] - b.Beliefs[i]))
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

func testGraph(t *testing.T, n, m int, seed int64, states int) *graph.Graph {
	t.Helper()
	g, err := gen.Synthetic(n, m, gen.Config{Seed: seed, States: states})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPoolPrimitive exercises the persistent team directly: every worker
// runs every region, and regions are serialized by the barrier.
func TestPoolPrimitive(t *testing.T) {
	const workers, regions = 7, 50
	p := newPool(workers)
	defer p.close()
	var total atomic.Int64
	for r := 0; r < regions; r++ {
		seen := make([]atomic.Bool, workers)
		p.run(func(w int) {
			if seen[w].Swap(true) {
				t.Errorf("region %d ran twice on worker %d", r, w)
			}
			total.Add(1)
		})
		for w := range seen {
			if !seen[w].Load() {
				t.Fatalf("region %d skipped worker %d", r, w)
			}
		}
	}
	if total.Load() != workers*regions {
		t.Errorf("ran %d bodies, want %d", total.Load(), workers*regions)
	}
}

// TestNodeDeterministicAcrossWorkerCounts is the pool engine's core
// contract: the per-node paradigm produces bitwise-identical beliefs and
// identical convergence bookkeeping for any team size.
func TestNodeDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, queue := range []bool{false, true} {
		base := testGraph(t, 400, 1600, 21, 3)
		ref := base.Clone()
		refRes := RunNode(ref, Options{Workers: 1, Options: bp.Options{WorkQueue: queue}})
		for _, workers := range []int{4, 16} {
			g := base.Clone()
			res := RunNode(g, Options{Workers: workers, Options: bp.Options{WorkQueue: queue}})
			for i := range ref.Beliefs {
				if ref.Beliefs[i] != g.Beliefs[i] {
					t.Fatalf("queue=%v workers=%d: belief[%d] %v != %v (not bitwise identical)",
						queue, workers, i, g.Beliefs[i], ref.Beliefs[i])
				}
			}
			if res.Iterations != refRes.Iterations || res.Converged != refRes.Converged {
				t.Errorf("queue=%v workers=%d: iterations/converged %d/%v, want %d/%v",
					queue, workers, res.Iterations, res.Converged, refRes.Iterations, refRes.Converged)
			}
			if res.FinalDelta != refRes.FinalDelta {
				t.Errorf("queue=%v workers=%d: final delta %v, want %v",
					queue, workers, res.FinalDelta, refRes.FinalDelta)
			}
			if res.Ops.NodesProcessed != refRes.Ops.NodesProcessed ||
				res.Ops.EdgesProcessed != refRes.Ops.EdgesProcessed {
				t.Errorf("queue=%v workers=%d: work counts diverge: %+v vs %+v",
					queue, workers, res.Ops, refRes.Ops)
			}
		}
	}
}

// TestNodeMatchesSequential checks the per-node paradigm against the
// single-threaded engine (same Jacobi schedule, so only reduction order
// differs).
func TestNodeMatchesSequential(t *testing.T) {
	g1 := testGraph(t, 400, 1600, 5, 2)
	g2 := g1.Clone()
	bp.RunNode(g1, bp.Options{})
	RunNode(g2, Options{Workers: 4, CheckEvery: 1})
	if d := maxBeliefDiff(g1, g2); d > 1e-3 {
		t.Errorf("pool node beliefs diverge from sequential by %v", d)
	}
}

// TestEdgeMatchesSequentialOracle checks the per-edge paradigm against the
// sequential oracle within the convergence tolerance, with and without the
// work queue.
func TestEdgeMatchesSequentialOracle(t *testing.T) {
	for _, queue := range []bool{false, true} {
		g1 := testGraph(t, 400, 1600, 9, 3)
		g2 := g1.Clone()
		bp.RunEdge(g1, bp.Options{WorkQueue: queue})
		res := RunEdge(g2, Options{Workers: 4, Options: bp.Options{WorkQueue: queue}})
		if d := maxBeliefDiff(g1, g2); d > 5e-3 {
			t.Errorf("queue=%v: pool edge beliefs diverge from oracle by %v", queue, d)
		}
		if !res.Converged {
			t.Errorf("queue=%v: pool edge run did not converge", queue)
		}
	}
}

// TestBatchedConvergenceCheck verifies the CheckEvery contract: a batched
// run still converges, overshoots the per-sweep check by fewer than
// CheckEvery sweeps, and records one delta per check.
func TestBatchedConvergenceCheck(t *testing.T) {
	base := testGraph(t, 300, 1200, 17, 2)
	perSweep := RunNode(base.Clone(), Options{Workers: 2, CheckEvery: 1})
	batched := RunNode(base.Clone(), Options{Workers: 2, CheckEvery: 5, Options: bp.Options{RecordDeltas: true}})
	if !perSweep.Converged || !batched.Converged {
		t.Fatalf("runs did not converge: per-sweep %v, batched %v", perSweep.Converged, batched.Converged)
	}
	if batched.Iterations < perSweep.Iterations || batched.Iterations >= perSweep.Iterations+5 {
		t.Errorf("batched run took %d sweeps, want within [%d, %d)",
			batched.Iterations, perSweep.Iterations, perSweep.Iterations+5)
	}
	wantChecks := (batched.Iterations + 4) / 5
	if len(batched.Deltas) != wantChecks {
		t.Errorf("recorded %d deltas, want one per check (%d)", len(batched.Deltas), wantChecks)
	}
}

func TestObservedNodesClamped(t *testing.T) {
	g := testGraph(t, 80, 320, 3, 3)
	if err := g.Observe(11, 1); err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(*graph.Graph, Options) bp.Result{"node": RunNode, "edge": RunEdge} {
		c := g.Clone()
		run(c, Options{Workers: 4})
		b := c.Belief(11)
		if b[0] != 0 || b[1] != 1 || b[2] != 0 {
			t.Errorf("%s: observed node drifted to %v", name, b)
		}
	}
}

// TestWorkQueueReducesWork checks that the sharded queues actually skip
// quiescent items.
func TestWorkQueueReducesWork(t *testing.T) {
	base := testGraph(t, 500, 2000, 13, 2)
	full := RunNode(base.Clone(), Options{Workers: 4})
	queued := RunNode(base.Clone(), Options{Workers: 4, Options: bp.Options{WorkQueue: true}})
	if queued.Ops.NodesProcessed >= full.Ops.NodesProcessed {
		t.Errorf("node queue did not reduce work: %d >= %d", queued.Ops.NodesProcessed, full.Ops.NodesProcessed)
	}
	if queued.Ops.QueuePushes == 0 {
		t.Error("node queue recorded no pushes")
	}
	fullE := RunEdge(base.Clone(), Options{Workers: 4})
	queuedE := RunEdge(base.Clone(), Options{Workers: 4, Options: bp.Options{WorkQueue: true}})
	if queuedE.Ops.EdgesProcessed >= fullE.Ops.EdgesProcessed {
		t.Errorf("edge queue did not reduce work: %d >= %d", queuedE.Ops.EdgesProcessed, fullE.Ops.EdgesProcessed)
	}
}

// TestOpAccounting spot-checks the counters the perfmodel prices.
func TestOpAccounting(t *testing.T) {
	g := testGraph(t, 100, 400, 7, 2)
	res := RunEdge(g, Options{Workers: 3})
	if res.Ops.AtomicOps != res.Ops.EdgesProcessed*int64(g.States) {
		t.Errorf("atomic ops %d, want %d", res.Ops.AtomicOps, res.Ops.EdgesProcessed*int64(g.States))
	}
	if res.Ops.SyncOps == 0 {
		t.Error("edge run recorded no barrier crossings")
	}
	// Two regions per sweep without the queue, 3 workers each.
	if want := int64(res.Iterations) * 2 * 3; res.Ops.SyncOps != want {
		t.Errorf("sync ops %d, want %d", res.Ops.SyncOps, want)
	}
	nres := RunNode(g.Clone(), Options{Workers: 3})
	if nres.Ops.AtomicOps != 0 {
		t.Errorf("node paradigm touched %d atomics, want none", nres.Ops.AtomicOps)
	}
}

// TestDegenerateGraphs covers empty and single-node inputs and teams
// larger than the item space.
func TestDegenerateGraphs(t *testing.T) {
	empty := &graph.Graph{States: 2, InOffsets: []int32{0}, OutOffsets: []int32{0}}
	if err := empty.Validate(); err != nil {
		t.Fatalf("empty graph invalid: %v", err)
	}
	for name, run := range map[string]func(*graph.Graph, Options) bp.Result{"node": RunNode, "edge": RunEdge} {
		res := run(empty.Clone(), Options{Workers: 4})
		if !res.Converged {
			t.Errorf("%s: empty graph did not converge", name)
		}
		single := testGraph(t, 2, 1, 1, 2)
		res = run(single, Options{Workers: 16})
		if !res.Converged {
			t.Errorf("%s: tiny graph did not converge under an oversized team", name)
		}
		if err := single.Validate(); err != nil {
			t.Errorf("%s: tiny graph corrupted: %v", name, err)
		}
	}
}

// TestDampingStabilizes mirrors the bp property test: damping must not
// break convergence or produce invalid distributions.
func TestDampingStabilizes(t *testing.T) {
	g := testGraph(t, 200, 800, 29, 2)
	res := RunNode(g, Options{Workers: 4, Options: bp.Options{Damping: 0.3}})
	if !res.Converged {
		t.Error("damped run did not converge")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("damped beliefs invalid: %v", err)
	}
}

// TestDampedNodeDeterministicAcrossWorkerCounts extends the pool's
// fixpoint-determinism contract to the robust variants: the in-kernel
// blend is a pure function of the previous sweep's beliefs, and Circular
// BP's correction state is double-buffered per sweep, so every node reads
// the reverse messages committed at the previous sweep barrier no matter
// which worker wrote them or when. Damped and circular runs must stay
// bitwise identical across team sizes exactly like vanilla runs.
func TestDampedNodeDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, o := range []bp.Options{
		{Damping: 0.5},
		{Variant: kernel.VariantCircular},
	} {
		variant := o.ResolveVariant().Variant
		base := testGraph(t, 400, 1600, 21, 3)
		ref := base.Clone()
		refRes := RunNode(ref, Options{Workers: 1, Options: o})
		for _, workers := range []int{4, 16} {
			g := base.Clone()
			res := RunNode(g, Options{Workers: workers, Options: o})
			for i := range ref.Beliefs {
				if ref.Beliefs[i] != g.Beliefs[i] {
					t.Fatalf("%s workers=%d: belief[%d] %v != %v (not bitwise identical)",
						variant, workers, i, g.Beliefs[i], ref.Beliefs[i])
				}
			}
			if res.Iterations != refRes.Iterations || res.Converged != refRes.Converged {
				t.Errorf("%s workers=%d: iterations/converged %d/%v, want %d/%v",
					variant, workers, res.Iterations, res.Converged, refRes.Iterations, refRes.Converged)
			}
		}
	}
}

// TestShardCountIndependentOfWorkers pins the property the determinism
// contract rests on.
func TestShardCountIndependentOfWorkers(t *testing.T) {
	for _, items := range []int{0, 1, 7, 100, 2047, 2048, 100000} {
		s := shardCount(items, 0)
		if items > 0 && s < 1 {
			t.Errorf("items=%d: shard count %d < 1", items, s)
		}
		if s > items && items > 0 {
			t.Errorf("items=%d: more shards (%d) than items", items, s)
		}
		// Ranges must tile the item space exactly.
		covered := 0
		for sh := 0; sh < s; sh++ {
			lo, hi := shardRange(sh, items, s)
			covered += hi - lo
		}
		if covered != items {
			t.Errorf("items=%d shards=%d cover %d items", items, s, covered)
		}
	}
	if got := shardCount(100, 16); got != 16 {
		t.Errorf("override ignored: %d", got)
	}
	if got := shardCount(8, 100); got != 8 {
		t.Errorf("override not clamped to items: %d", got)
	}
}
