package bp

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"credo/internal/gen"
	"credo/internal/graph"
)

// TestPropertyBeliefsAlwaysValid: every engine leaves normalized, finite
// beliefs for arbitrary seeds, widths and densities.
func TestPropertyBeliefsAlwaysValid(t *testing.T) {
	engines := []struct {
		name string
		run  func(*graph.Graph, Options) Result
	}{
		{"node", RunNode},
		{"edge", RunEdge},
		{"residual", RunResidual},
	}
	f := func(seed int64, statesRaw, densityRaw uint8, queue bool) bool {
		states := 2 + int(statesRaw)%6
		n := 20 + int(seed%40+40)%40
		m := n * (1 + int(densityRaw)%5)
		g, err := gen.Synthetic(n, m, gen.Config{Seed: seed, States: states})
		if err != nil {
			return false
		}
		for _, e := range engines {
			c := g.Clone()
			e.run(c, Options{MaxIterations: 30, WorkQueue: queue})
			if err := c.Validate(); err != nil {
				t.Logf("%s: %v", e.name, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPropertyObservationMonotone: observing a node can only sharpen its
// own belief to the indicator, never anything else.
func TestPropertyObservationMonotone(t *testing.T) {
	f := func(seed int64, nodeRaw, stateRaw uint8) bool {
		g, err := gen.Synthetic(50, 200, gen.Config{Seed: seed, States: 3})
		if err != nil {
			return false
		}
		v := int32(int(nodeRaw) % g.NumNodes)
		s := int(stateRaw) % g.States
		if err := g.Observe(v, s); err != nil {
			return false
		}
		RunEdge(g, Options{MaxIterations: 20})
		b := g.Belief(v)
		for j := range b {
			want := float32(0)
			if j == s {
				want = 1
			}
			if b[j] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyConvergenceMonotoneInThreshold: a looser threshold never
// needs more iterations than a tighter one.
func TestPropertyConvergenceMonotoneInThreshold(t *testing.T) {
	f := func(seed int64) bool {
		g, err := gen.Synthetic(100, 400, gen.Config{Seed: seed, States: 2})
		if err != nil {
			return false
		}
		loose := RunNode(g.Clone(), Options{Threshold: 0.01})
		tight := RunNode(g.Clone(), Options{Threshold: 0.0001})
		return loose.Iterations <= tight.Iterations
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPropertyExactTreeIsDistribution: exact inference on random directed
// trees yields marginals matching the brute-force oracle.
func TestPropertyExactTreeOracle(t *testing.T) {
	f := func(seed int64, branchRaw uint8) bool {
		branching := 1 + int(branchRaw)%3
		g, err := gen.DirectedTree(8, branching, gen.Config{Seed: seed, States: 2})
		if err != nil {
			return false
		}
		want, err := BruteForceMarginals(g)
		if err != nil {
			return false
		}
		if err := ExactTree(g); err != nil {
			return false
		}
		for v := 0; v < g.NumNodes; v++ {
			for j := 0; j < g.States; j++ {
				if math.Abs(float64(g.Belief(int32(v))[j])-want[v][j]) > 1e-4 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDampedFixedPointAgrees: damping changes the trajectory,
// not the fixed points. A damped step b' = (1−d)·f(b) + d·b is stationary
// exactly where f(b) = b, so every converged run, damped or not, ends at
// a fixpoint of the undamped update. Damping does not pick which one:
// on a loopy graph BP can have several, and a damped and an undamped run
// may settle in different ones.
func TestPropertyDampedFixedPointAgrees(t *testing.T) {
	// quick.Check once drew this input. Undamped RunEdge converges 0.9995
	// (L∞) away from the damped run there, yet both are fixpoints.
	t.Run("loopy_seed_-1818416801545844903_damping_0.31", func(t *testing.T) {
		if err := dampedRunsAreFixpoints(-1818416801545844903, 0.31, true); err != nil {
			t.Fatal(err)
		}
	})
	f := func(seed int64, dampRaw uint8) bool {
		damping := float32(dampRaw%80) / 100 // [0, 0.79]
		if err := dampedRunsAreFixpoints(seed, damping, false); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// dampedRunsAreFixpoints runs undamped and damped RunEdge on one
// synthetic graph and checks that each converged run ends at a fixpoint
// of the undamped update: one undamped sweep from its beliefs moves them
// by a summed L1 of at most twice Threshold/(1−d). The stopping rule
// (1−d)·Σ|f(b)−b| < Threshold gives Threshold/(1−d) for the last step;
// the factor two covers the move the last step itself makes (the worst
// of 1,500 random inputs used 0.92 of Threshold/(1−d)). Non-convergent
// runs carry no fixpoint claim unless mustConverge is set.
func dampedRunsAreFixpoints(seed int64, damping float32, mustConverge bool) error {
	g, err := gen.Synthetic(80, 320, gen.Config{Seed: seed, States: 2})
	if err != nil {
		return err
	}
	for _, d := range []float32{0, damping} {
		c := g.Clone()
		res := RunEdge(c, Options{Damping: d})
		if !res.Converged {
			if mustConverge {
				return fmt.Errorf("seed %d damping %g: run did not converge", seed, d)
			}
			continue
		}
		bound := 2 * DefaultThreshold / (1 - d)
		if r := RunEdge(c, Options{MaxIterations: 1}).FinalDelta; r > bound {
			return fmt.Errorf("seed %d damping %g: one undamped sweep from the converged beliefs moves them %g, bound %g",
				seed, d, r, bound)
		}
	}
	return nil
}
