package bp

import (
	"math"
	"math/rand"
	"testing"

	"credo/internal/gen"
	"credo/internal/graph"
	"credo/internal/kernel"
)

func TestResidualMatchesSweepBeliefs(t *testing.T) {
	for _, states := range []int{2, 3} {
		g1, err := gen.Synthetic(200, 800, gen.Config{Seed: 33, States: states})
		if err != nil {
			t.Fatal(err)
		}
		g2 := g1.Clone()
		RunNode(g1, Options{})
		res := RunResidual(g2, Options{})
		if !res.Converged {
			t.Fatalf("states=%d: residual BP did not converge: %+v", states, res)
		}
		// Residual BP is asynchronous; fixed points agree within the
		// per-element threshold scale.
		if d := maxBeliefDiff(g1, g2); d > 2e-2 {
			t.Errorf("states=%d: residual beliefs diverge from sweep by %v", states, d)
		}
	}
}

func TestResidualConvergesOnChainWithEvidence(t *testing.T) {
	g := chainGraph(t, 2, 0.9)
	_ = g.Observe(0, 0)
	res := RunResidual(g, Options{})
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if b := g.Belief(2); b[0] <= b[1] {
		t.Errorf("evidence did not propagate: %v", b)
	}
}

func TestResidualFocusesWork(t *testing.T) {
	// A graph where only one region receives evidence: residual BP should
	// apply far fewer node updates than a full sweep run processes.
	b := graph.NewBuilder(2)
	_ = b.SetShared(graph.DiagonalJointMatrix(2, 0.9))
	const n = 1000
	for i := 0; i < n; i++ {
		_, _ = b.AddNode([]float32{0.5, 0.5})
	}
	// Two disjoint chains: evidence lands only in the first.
	for i := 0; i+1 < n/2; i++ {
		_ = b.AddEdge(int32(i), int32(i+1), nil)
	}
	for i := n / 2; i+1 < n; i++ {
		_ = b.AddEdge(int32(i), int32(i+1), nil)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_ = g.Observe(0, 1)

	gr := g.Clone()
	resR := RunResidual(gr, Options{})
	gs := g.Clone()
	resS := RunNode(gs, Options{})
	if resR.Ops.NodesProcessed >= resS.Ops.NodesProcessed {
		t.Errorf("residual applied %d updates, sweep %d; expected focus",
			resR.Ops.NodesProcessed, resS.Ops.NodesProcessed)
	}
	// The quiescent chain must be untouched (uniform priors, no inputs
	// changed => no updates).
	if d := float64(gr.Belief(int32(n - 1))[0]); math.Abs(d-0.5) > 1e-6 {
		t.Errorf("quiescent region belief moved to %v", d)
	}
}

func TestResidualObservedNodesClamped(t *testing.T) {
	g, err := gen.Synthetic(80, 320, gen.Config{Seed: 4, States: 3})
	if err != nil {
		t.Fatal(err)
	}
	_ = g.Observe(9, 2)
	RunResidual(g, Options{})
	b := g.Belief(9)
	if b[0] != 0 || b[1] != 0 || b[2] != 1 {
		t.Errorf("observed node drifted to %v", b)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("invalid beliefs after residual run: %v", err)
	}
}

func TestResidualUpdateCap(t *testing.T) {
	g, err := gen.Synthetic(100, 400, gen.Config{Seed: 5, States: 2})
	if err != nil {
		t.Fatal(err)
	}
	res := RunResidual(g, Options{MaxIterations: 2, Threshold: 1e-12, QueueThreshold: 1e-12})
	if res.Ops.NodesProcessed > 2*int64(g.NumNodes) {
		t.Errorf("applied %d updates, cap was %d", res.Ops.NodesProcessed, 2*g.NumNodes)
	}
}

// TestResidualComputesCandidatesOnlyForSeedsAndPops pins the estimate
// discipline rather than a count: on a ring every node has in-degree 2,
// so a cold run that computes a candidate only for each seed and each pop
// folds exactly twice as many edges as it has seeds and pops. An engine
// that recomputed successors' residuals after every update would fold
// more. Every pop was pushed, so pushes bound pops from above.
func TestResidualComputesCandidatesOnlyForSeedsAndPops(t *testing.T) {
	const n = 64
	b := graph.NewBuilder(2)
	_ = b.SetShared(graph.DiagonalJointMatrix(2, 0.8))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		p := 0.1 + 0.8*rng.Float32()
		_, _ = b.AddNode([]float32{p, 1 - p})
	}
	for i := int32(0); i < n; i++ {
		_ = b.AddUndirected(i, (i+1)%n, nil)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_ = g.Observe(0, 0)
	_ = g.Observe(n/2, 1)
	const unobserved = n - 2

	res := RunResidual(g, Options{})
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	pops := res.Ops.NodesProcessed + res.Ops.WastedUpdates
	if want := 2 * (unobserved + pops); res.Ops.EdgesProcessed != want {
		t.Errorf("folded %d edges, want 2·(%d seeds + %d pops) = %d",
			res.Ops.EdgesProcessed, unobserved, pops, want)
	}
	if res.Ops.QueuePushes < pops {
		t.Errorf("%d pushes for %d pops", res.Ops.QueuePushes, pops)
	}
}

// TestResidualQueueOrdering pins the raise-only queue: a lower estimate
// leaves a queued node where it is, a higher one lifts it.
func TestResidualQueueOrdering(t *testing.T) {
	var pq residualQueue
	pq.reset(5)
	pq.raise(0, 0.1)
	pq.raise(1, 0.9)
	pq.raise(2, 0.5)
	pq.raise(1, 0.05) // lower: unchanged
	pq.raise(3, 0.7)
	pq.raise(0, 0.8) // higher: lifted
	want := []struct {
		v int32
		r float32
	}{{1, 0.9}, {0, 0.8}, {3, 0.7}, {2, 0.5}}
	for _, w := range want {
		if r := pq.maxResidual(); r != w.r {
			t.Fatalf("top estimate = %v, want %v", r, w.r)
		}
		if v := pq.popMax(); v != w.v {
			t.Fatalf("pop order wrong: got %d, want %d", v, w.v)
		}
	}
	if pq.Len() != 0 {
		t.Errorf("queue not empty: %d", pq.Len())
	}
	if pq.maxResidual() != 0 {
		t.Errorf("empty queue max residual = %v", pq.maxResidual())
	}
}

// TestResidualQueueReuse pins the O(touched) queue reset: one scratch
// arena drives an iteration-capped run that stops with nodes still
// queued, then a run on a smaller graph, then one on a larger graph, and
// each must match the same run on a fresh arena bitwise.
func TestResidualQueueReuse(t *testing.T) {
	synth := func(n int) *graph.Graph {
		g, err := gen.Synthetic(n, 4*n, gen.Config{Seed: int64(n), States: 2})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	steps := []struct {
		name string
		g    *graph.Graph
		opts Options
	}{
		{"capped", synth(300), Options{MaxIterations: 1, Threshold: 1e-12, QueueThreshold: 1e-12}},
		{"smaller", synth(100), Options{}},
		{"larger", synth(600), Options{}},
	}
	sc := new(runScratch)
	for _, st := range steps {
		got, want := st.g.Clone(), st.g.Clone()
		sc.ks.Counters = kernel.Counters{} // as release does between pooled runs
		rg := runResidual(got, st.opts, sc, nil)
		rw := runResidual(want, st.opts, new(runScratch), nil)
		if st.name == "capped" && (rg.Converged || sc.pq.Len() == 0) {
			t.Fatalf("capped run converged=%v with %d nodes queued; the reuse path is not exercised",
				rg.Converged, sc.pq.Len())
		}
		if rg.Converged != rw.Converged || rg.Iterations != rw.Iterations ||
			rg.FinalDelta != rw.FinalDelta || rg.Ops != rw.Ops {
			t.Errorf("%s: reused arena %+v, fresh arena %+v", st.name, rg, rw)
		}
		for i := range want.Beliefs {
			if math.Float32bits(got.Beliefs[i]) != math.Float32bits(want.Beliefs[i]) {
				t.Fatalf("%s: belief %d = %g on the reused arena, %g on a fresh one",
					st.name, i, got.Beliefs[i], want.Beliefs[i])
			}
		}
		// Between runs pos marks exactly the queued nodes.
		for v, p := range sc.pq.pos {
			if p >= 0 && (int(p) >= sc.pq.Len() || sc.pq.nodes[p] != int32(v)) {
				t.Fatalf("%s: pos[%d] = %d names no queued entry", st.name, v, p)
			}
		}
	}
}

func TestDampingSlowsButConverges(t *testing.T) {
	g1, err := gen.Synthetic(300, 1200, gen.Config{Seed: 6, States: 2})
	if err != nil {
		t.Fatal(err)
	}
	g2 := g1.Clone()
	plain := RunNode(g1, Options{})
	damped := RunNode(g2, Options{Damping: 0.5})
	if !damped.Converged {
		t.Fatalf("damped run did not converge: %+v", damped)
	}
	if damped.Iterations < plain.Iterations {
		t.Errorf("damping converged faster (%d < %d); expected slower or equal",
			damped.Iterations, plain.Iterations)
	}
	// Fixed points agree.
	if d := maxBeliefDiff(g1, g2); d > 1e-2 {
		t.Errorf("damped fixed point diverges by %v", d)
	}
}

func TestBlend(t *testing.T) {
	b := []float32{1, 0}
	old := []float32{0, 1}
	Blend(b, old, 0.25)
	if b[0] != 0.75 || b[1] != 0.25 {
		t.Errorf("blend = %v, want [0.75 0.25]", b)
	}
	Blend(b, old, 0) // no-op
	if b[0] != 0.75 {
		t.Errorf("zero damping modified beliefs: %v", b)
	}
}

func TestRecordDeltas(t *testing.T) {
	g, err := gen.Synthetic(100, 400, gen.Config{Seed: 15, States: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		name string
		fn   func(*graph.Graph, Options) Result
	}{{"node", RunNode}, {"edge", RunEdge}, {"maxproduct", RunMaxProduct}} {
		res := run.fn(g.Clone(), Options{RecordDeltas: true})
		if len(res.Deltas) != res.Iterations {
			t.Errorf("%s: %d deltas for %d iterations", run.name, len(res.Deltas), res.Iterations)
		}
		if len(res.Deltas) > 0 && res.Deltas[len(res.Deltas)-1] != res.FinalDelta {
			t.Errorf("%s: last delta %v != final %v", run.name, res.Deltas[len(res.Deltas)-1], res.FinalDelta)
		}
		// Off by default.
		res = run.fn(g.Clone(), Options{})
		if res.Deltas != nil {
			t.Errorf("%s: deltas recorded without opting in", run.name)
		}
	}
}
