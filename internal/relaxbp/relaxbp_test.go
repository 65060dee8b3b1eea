package relaxbp

import (
	"testing"

	"credo/internal/bp"
	"credo/internal/gen"
	"credo/internal/graph"
)

// fixpointTol matches the residual-vs-sweep precedent in internal/bp:
// independently scheduled runs converging to the 0.001 element threshold
// agree to well under 2e-2 per node when the fixpoint is unique.
const fixpointTol = 2e-2

func maxBeliefDiff(a, b *graph.Graph) float32 {
	var worst float32
	for v := int32(0); v < int32(a.NumNodes); v++ {
		if d := graph.L1Diff(a.Belief(v), b.Belief(v)); d > worst {
			worst = d
		}
	}
	return worst
}

// checkAccounting asserts the queue conservation identity of a converged
// run: every push was eventually applied, dropped as stale, or wasted —
// no item lost, and nothing both stale and applied.
func checkAccounting(t *testing.T, res bp.Result) {
	t.Helper()
	total := res.Ops.NodesProcessed + res.Ops.StaleDrops + res.Ops.WastedUpdates
	if res.Ops.QueuePushes != total {
		t.Errorf("accounting identity broken: %d pushes != %d applied + %d stale + %d wasted",
			res.Ops.QueuePushes, res.Ops.NodesProcessed, res.Ops.StaleDrops, res.Ops.WastedUpdates)
	}
}

// TestFixpointMatchesOracle: the relaxed engine must land on the
// sequential sweep oracle's fixpoint for every team size, and each
// converged run must satisfy the conservation identity.
func TestFixpointMatchesOracle(t *testing.T) {
	graphs := []struct {
		name string
		mk   func() (*graph.Graph, error)
	}{
		{"synthetic-200x800-s2", func() (*graph.Graph, error) {
			return gen.Synthetic(200, 800, gen.Config{Seed: 33, States: 2, Shared: true})
		}},
		{"synthetic-400x1600-s3", func() (*graph.Graph, error) {
			return gen.Synthetic(400, 1600, gen.Config{Seed: 33, States: 3, Shared: true, Keep: 0.4})
		}},
		{"powerlaw-1000x4000-s2", func() (*graph.Graph, error) {
			return gen.PowerLaw(1000, 4000, gen.Config{Seed: 5, States: 2, Shared: true, Keep: 0.6})
		}},
	}
	for _, gc := range graphs {
		g0, err := gc.mk()
		if err != nil {
			t.Fatal(err)
		}
		oracle := g0.Clone()
		ores := bp.RunNode(oracle, bp.Options{})
		if !ores.Converged {
			t.Fatalf("%s: oracle did not converge", gc.name)
		}
		for _, workers := range []int{1, 4, 16} {
			g := g0.Clone()
			res := Run(g, Options{Workers: workers})
			if !res.Converged {
				t.Errorf("%s workers=%d: did not converge (final delta %g)", gc.name, workers, res.FinalDelta)
				continue
			}
			if d := maxBeliefDiff(oracle, g); d > fixpointTol {
				t.Errorf("%s workers=%d: diverges from oracle by %g", gc.name, workers, d)
			}
			if res.FinalDelta > bp.DefaultThreshold {
				t.Errorf("%s workers=%d: converged with final delta %g above the threshold", gc.name, workers, res.FinalDelta)
			}
			checkAccounting(t, res)
			if res.Ops.NodesProcessed == 0 || res.Ops.EdgesProcessed == 0 {
				t.Errorf("%s workers=%d: no work recorded (%+v)", gc.name, workers, res.Ops)
			}
		}
	}
}

// TestNoLostUpdates is the regression test for a lost update: a worker
// whose candidate was computed for an entry that a newer push superseded
// must not store it over the belief the newer entry already applied.
// A lost update leaves its node off its fixpoint with nothing queued to
// revisit it, so a sequential residual run seeded with every node still
// finds updates to apply. On this graph about 2% of 4-worker runs lost
// one, so 200 seeds catch it almost every time.
func TestNoLostUpdates(t *testing.T) {
	g0, err := gen.PowerLaw(1000, 4000, gen.Config{Seed: 5, States: 2, Shared: true, Keep: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 200; seed++ {
		g := g0.Clone()
		res := Run(g, Options{Workers: 4, Seed: seed})
		if !res.Converged {
			t.Fatalf("seed %d: did not converge", seed)
		}
		checkAccounting(t, res)
		if again := bp.RunResidualFrom(g, bp.Options{}, nil); again.Ops.NodesProcessed != 0 {
			t.Errorf("seed %d: %d residual updates still pending at the relaxed fixpoint", seed, again.Ops.NodesProcessed)
		}
	}
}

// TestFewerUpdatesThanSweeps locks the point of residual scheduling: on a
// loopy graph the relaxed engine applies several times fewer belief
// updates than the synchronous sweep oracle needs.
func TestFewerUpdatesThanSweeps(t *testing.T) {
	g0, err := gen.Synthetic(400, 1600, gen.Config{Seed: 33, States: 3, Shared: true, Keep: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	sweep := bp.RunNode(g0.Clone(), bp.Options{})
	relax := Run(g0.Clone(), Options{Workers: 4})
	if !sweep.Converged || !relax.Converged {
		t.Fatalf("convergence: sweep %v relax %v", sweep.Converged, relax.Converged)
	}
	if relax.Ops.NodesProcessed*2 > sweep.Ops.NodesProcessed {
		t.Errorf("relax applied %d updates, sweeps %d — want at least 2x fewer",
			relax.Ops.NodesProcessed, sweep.Ops.NodesProcessed)
	}
}

// TestSeededDeterminism: Workers=1 with a fixed seed is fully
// deterministic — identical applied-update sequences and bitwise
// identical beliefs across runs.
func TestSeededDeterminism(t *testing.T) {
	mk := func() *graph.Graph {
		g, err := gen.Synthetic(200, 800, gen.Config{Seed: 33, States: 2, Shared: true})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	var t1, t2 []int32
	g1 := mk()
	Run(g1, Options{Workers: 1, Seed: 9, Trace: &t1})
	g2 := mk()
	Run(g2, Options{Workers: 1, Seed: 9, Trace: &t2})
	if len(t1) == 0 {
		t.Fatal("no updates traced")
	}
	if len(t1) != len(t2) {
		t.Fatalf("traces differ in length: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("traces diverge at update %d: node %d vs %d", i, t1[i], t2[i])
		}
	}
	for i := range g1.Beliefs {
		if g1.Beliefs[i] != g2.Beliefs[i] {
			t.Fatalf("beliefs not bitwise identical at %d", i)
		}
	}
	// A different seed samples shards differently; the update order is
	// free to change but the fixpoint is not.
	var t3 []int32
	g3 := mk()
	Run(g3, Options{Workers: 1, Seed: 77, Trace: &t3})
	if d := maxBeliefDiff(g1, g3); d > fixpointTol {
		t.Errorf("seeds 9 and 77 reach fixpoints %g apart", d)
	}
}

// TestSeededDeterminismDamped extends the seeded-determinism contract to
// damped mode: the blend is applied under the writing spinlock as a pure
// function of the live belief, so single-worker seeded runs must stay
// bitwise repeatable with damping on, and the damped fixpoint must stay
// within tolerance of the vanilla one on an easy graph.
func TestSeededDeterminismDamped(t *testing.T) {
	mk := func() *graph.Graph {
		g, err := gen.Synthetic(200, 800, gen.Config{Seed: 33, States: 2, Shared: true})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	opts := Options{Workers: 1, Seed: 9, Options: bp.Options{Damping: 0.5}}
	g1 := mk()
	res1 := Run(g1, opts)
	g2 := mk()
	Run(g2, opts)
	if !res1.Converged {
		t.Fatal("damped seeded run did not converge")
	}
	for i := range g1.Beliefs {
		if g1.Beliefs[i] != g2.Beliefs[i] {
			t.Fatalf("damped beliefs not bitwise identical at %d", i)
		}
	}
	g3 := mk()
	Run(g3, Options{Workers: 1, Seed: 9})
	if d := maxBeliefDiff(g1, g3); d > fixpointTol {
		t.Errorf("damped and vanilla fixpoints %g apart", d)
	}
}

// TestTraceOnlyForSingleWorker: the deterministic trace hook must stay
// silent on nondeterministic (multi-worker) runs.
func TestTraceOnlyForSingleWorker(t *testing.T) {
	g, err := gen.Synthetic(100, 400, gen.Config{Seed: 3, States: 2, Shared: true})
	if err != nil {
		t.Fatal(err)
	}
	var trace []int32
	Run(g, Options{Workers: 4, Trace: &trace})
	if len(trace) != 0 {
		t.Errorf("trace recorded %d entries on a 4-worker run", len(trace))
	}
}

// TestObservedNodesUntouched: clamped evidence must never be scheduled or
// overwritten.
func TestObservedNodesUntouched(t *testing.T) {
	g, err := gen.Synthetic(100, 400, gen.Config{Seed: 3, States: 2, Shared: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Observe(7, 1); err != nil {
		t.Fatal(err)
	}
	want := append([]float32(nil), g.Belief(7)...)
	var trace []int32
	Run(g, Options{Workers: 1, Trace: &trace})
	for j, v := range g.Belief(7) {
		if v != want[j] {
			t.Fatalf("observed belief changed: %v -> %v", want, g.Belief(7))
		}
	}
	for _, v := range trace {
		if v == 7 {
			t.Fatal("observed node 7 received an update")
		}
	}
}

// TestIterationCap: a hard iteration budget must stop the engine and
// report non-convergence instead of spinning.
func TestIterationCap(t *testing.T) {
	g, err := gen.Synthetic(200, 1600, gen.Config{Seed: 4, States: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := Run(g, Options{Workers: 4, Options: bp.Options{MaxIterations: 1}})
	if res.Converged {
		t.Error("run reported convergence under a 1-sweep-equivalent budget")
	}
	cap := int64(1) * int64(g.NumNodes)
	if res.Ops.NodesProcessed > cap+16 {
		t.Errorf("applied %d updates, cap was %d", res.Ops.NodesProcessed, cap)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("beliefs invalid after capped run: %v", err)
	}
}

// TestRaceStress is the -race configuration's engine hammer: a large team
// against a tiny graph maximizes queue contention and overlapping writer
// locks; the run must stay race-free and still land on the oracle.
func TestRaceStress(t *testing.T) {
	g0, err := gen.Synthetic(50, 200, gen.Config{Seed: 11, States: 2, Shared: true, Keep: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	oracle := g0.Clone()
	bp.RunNode(oracle, bp.Options{})
	for round := 0; round < 5; round++ {
		g := g0.Clone()
		res := Run(g, Options{Workers: 16, Seed: int64(round + 1)})
		if !res.Converged {
			t.Fatalf("round %d: did not converge", round)
		}
		if d := maxBeliefDiff(oracle, g); d > fixpointTol {
			t.Fatalf("round %d: diverges from oracle by %g", round, d)
		}
		checkAccounting(t, res)
	}
}
