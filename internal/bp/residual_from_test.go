package bp

import (
	"math"
	"math/rand"
	"testing"

	"credo/internal/gen"
	"credo/internal/graph"
)

// warmGrid builds the shared warm-start test graph: a lattice MRF large
// enough that a localized evidence change perturbs only a region.
func warmGrid(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.Grid(16, 16, gen.Config{Seed: 5, States: 2, Shared: true, Keep: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// perturbFrontier returns the warm-start seed set for clamping node v:
// the node itself plus its out-neighbours — everything whose residual
// the evidence change can move directly.
func perturbFrontier(g *graph.Graph, v int32) []int32 {
	seeds := []int32{v}
	for _, e := range g.OutEdges[g.OutOffsets[v]:g.OutOffsets[v+1]] {
		seeds = append(seeds, g.EdgeDst[e])
	}
	return seeds
}

func TestRunResidualFromNilSeedsMatchesCold(t *testing.T) {
	a, b := warmGrid(t), warmGrid(t)
	ra := RunResidual(a, Options{})
	rb := RunResidualFrom(b, Options{}, nil)
	if ra.Ops.NodesProcessed != rb.Ops.NodesProcessed {
		t.Fatalf("nil-seed run applied %d updates, cold %d", rb.Ops.NodesProcessed, ra.Ops.NodesProcessed)
	}
	for i := range a.Beliefs {
		if a.Beliefs[i] != b.Beliefs[i] {
			t.Fatalf("belief %d differs: %g vs %g", i, a.Beliefs[i], b.Beliefs[i])
		}
	}
}

func TestRunResidualFromEmptySeedsIsFree(t *testing.T) {
	g := warmGrid(t)
	if res := RunResidual(g, Options{}); !res.Converged {
		t.Fatalf("cold run did not converge (delta %g)", res.FinalDelta)
	}
	res := RunResidualFrom(g, Options{}, []int32{})
	if !res.Converged {
		t.Fatal("empty-seed warm start did not report convergence")
	}
	if res.Ops.NodesProcessed != 0 {
		t.Fatalf("empty-seed warm start applied %d updates, want 0", res.Ops.NodesProcessed)
	}
}

func TestRunResidualFromWarmMatchesColdWithFewerUpdates(t *testing.T) {
	// Converge once, clamp one interior node, and re-converge from the
	// fixpoint seeding only the perturbed frontier.
	warm := warmGrid(t)
	if res := RunResidual(warm, Options{}); !res.Converged {
		t.Fatalf("initial run did not converge (delta %g)", res.FinalDelta)
	}
	const clamped = 8*16 + 8 // interior node of the 16x16 grid
	if err := warm.Observe(clamped, 1); err != nil {
		t.Fatal(err)
	}
	warmRes := RunResidualFrom(warm, Options{}, perturbFrontier(warm, clamped))
	if !warmRes.Converged {
		t.Fatalf("warm run did not converge (delta %g)", warmRes.FinalDelta)
	}

	cold := warmGrid(t)
	if err := cold.Observe(clamped, 1); err != nil {
		t.Fatal(err)
	}
	coldRes := RunResidual(cold, Options{})
	if !coldRes.Converged {
		t.Fatalf("cold run did not converge (delta %g)", coldRes.FinalDelta)
	}

	// Equivalence: the warm re-convergence must land on the cold-start
	// posterior within the serving convergence tolerance. Both runs stop
	// once every pending residual is below the element threshold, so each
	// sits within a small multiple of it from the unique fixpoint; the
	// cross-run distance is locked at 10x the threshold (measured ~3x on
	// this grid), the same reasoning as enginetest's cross-engine bound.
	tol := float32(10 * DefaultThreshold)
	var worst float32
	for v := int32(0); v < int32(warm.NumNodes); v++ {
		if d := graph.L1Diff(warm.Belief(v), cold.Belief(v)); d > worst {
			worst = d
		}
	}
	if worst > tol {
		t.Fatalf("warm start diverges from cold start by %g (tolerance %g)", worst, tol)
	}

	// The point of warm starting: measurably fewer belief updates.
	if warmRes.Ops.NodesProcessed >= coldRes.Ops.NodesProcessed {
		t.Fatalf("warm start applied %d updates, cold %d — no saving",
			warmRes.Ops.NodesProcessed, coldRes.Ops.NodesProcessed)
	}
	t.Logf("updates: warm %d vs cold %d", warmRes.Ops.NodesProcessed, coldRes.Ops.NodesProcessed)
}

func TestRunResidualFromSkipsBadSeeds(t *testing.T) {
	g := warmGrid(t)
	if res := RunResidual(g, Options{}); !res.Converged {
		t.Fatal("cold run did not converge")
	}
	// Out-of-range and duplicate seeds must be tolerated, not panic.
	res := RunResidualFrom(g, Options{}, []int32{-3, int32(g.NumNodes) + 7, 0, 0})
	if !res.Converged {
		t.Fatal("warm start with degenerate seeds did not converge")
	}
}

// TestResidualFromReportsMoved: a seeded run lists exactly the nodes
// whose beliefs it changed, an empty seed set reports an empty non-nil
// list, and a cold run, or one past NumNodes updates, reports none (nil:
// not tracked).
func TestResidualFromReportsMoved(t *testing.T) {
	g := warmGrid(t)
	if res := RunResidual(g, Options{}); !res.Converged || res.Moved != nil {
		t.Fatalf("cold run: converged=%v, Moved=%v; want converged and nil", res.Converged, res.Moved)
	}
	if res := RunResidualFrom(g, Options{}, []int32{}); res.Moved == nil || len(res.Moved) != 0 {
		t.Fatalf("empty-seed run reported Moved=%v, want an empty non-nil slice", res.Moved)
	}
	rng := rand.New(rand.NewSource(7))
	untracked := 0
	for trial := 0; trial < 40; trial++ {
		opts := Options{}
		if trial%4 == 3 {
			opts.Damping = 0.5
		}
		var seeds []int32
		for k := 0; k < 1+rng.Intn(3); k++ {
			v := int32(rng.Intn(g.NumNodes))
			if rng.Intn(2) == 0 {
				if err := g.Observe(v, rng.Intn(g.States)); err != nil {
					t.Fatal(err)
				}
			} else {
				p := g.Prior(v)
				p[0], p[1] = p[1], p[0]
			}
			seeds = append(seeds, perturbFrontier(g, v)...)
		}
		before := append([]float32(nil), g.Beliefs...)
		res := RunResidualFrom(g, opts, seeds)
		if res.Ops.NodesProcessed > int64(g.NumNodes) {
			if res.Moved != nil {
				t.Fatalf("trial %d: %d updates on %d nodes still tracked", trial, res.Ops.NodesProcessed, g.NumNodes)
			}
			untracked++
			continue
		}
		if res.Moved == nil || int64(len(res.Moved)) != res.Ops.NodesProcessed {
			t.Fatalf("trial %d: %d moves reported for %d applied updates", trial, len(res.Moved), res.Ops.NodesProcessed)
		}
		moved := map[int32]bool{}
		for _, v := range res.Moved {
			moved[v] = true
		}
		for v := int32(0); v < int32(g.NumNodes); v++ {
			changed := false
			for j := 0; j < g.States; j++ {
				i := int(v)*g.States + j
				changed = changed || math.Float32bits(before[i]) != math.Float32bits(g.Beliefs[i])
			}
			if changed != moved[v] {
				t.Fatalf("trial %d: node %d changed=%v but reported moved=%v", trial, v, changed, moved[v])
			}
		}
	}
	t.Logf("%d of 40 seeded runs passed NumNodes updates and went untracked", untracked)
	if untracked > 10 {
		t.Fatalf("%d of 40 trials passed NumNodes updates; the tracked case is barely exercised", untracked)
	}
}
