package bp

import (
	"testing"

	"credo/internal/gen"
	"credo/internal/graph"
	"credo/internal/kernel"
)

// allocGraph builds a 200-node synthetic graph.
func allocGraph(t testing.TB, states int, shared bool) *graph.Graph {
	t.Helper()
	g, err := gen.Synthetic(200, 800, gen.Config{Seed: 5, States: states, Shared: shared})
	if err != nil {
		t.Fatalf("Synthetic: %v", err)
	}
	return g
}

// TestEnginesAllocFree locks the satellite guarantee of the kernel PR:
// after a warm-up call primes the pooled scratch arena, the sequential
// engines allocate nothing per run — including RunEdge, which historically
// reallocated its O(NumNodes·States) accumulator on every call.
func TestEnginesAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the 0-allocs contract is asserted in the non-race build")
	}
	engines := []struct {
		name string
		run  func(*graph.Graph, Options) Result
	}{
		{"RunNode", RunNode},
		{"RunEdge", RunEdge},
		{"RunResidual", RunResidual},
		{"RunTraditional", RunTraditional},
		{"RunMaxProduct", RunMaxProduct},
	}
	modes := []kernel.Mode{kernel.Specialized, kernel.Generic, kernel.LogSpace}
	for _, states := range []int{2, 5} {
		for _, eng := range engines {
			for _, mode := range modes {
				for _, wq := range []bool{false, true} {
					// Damping must ride the same zero-allocation path:
					// the blend happens in place inside the kernel (or
					// the engine's combine), with no extra state.
					for _, damping := range []float32{0, 0.5} {
						g := allocGraph(t, states, states == 2)
						opts := Options{WorkQueue: wq, Damping: damping, Kernel: kernel.Config{Mode: mode}}
						// AllocsPerRun's extra warm-up call primes the pool.
						allocs := testing.AllocsPerRun(5, func() {
							eng.run(g, opts)
						})
						if allocs != 0 {
							t.Errorf("%s states=%d mode=%v workqueue=%v damping=%g: %.1f allocs/run, want 0",
								eng.name, states, mode, wq, damping, allocs)
						}
					}
				}
			}
		}
	}

	// Cold residual starts at a size where node ids pass 255, so a queue
	// that boxed ids into interfaces would allocate on most pushes and
	// pops. ResetBeliefs inside the measured closure makes every run a
	// true cold start; it allocates nothing itself.
	cold := []struct {
		name string
		run  func(*graph.Graph, Options) Result
	}{
		{"RunResidual", RunResidual},
		{"RunResidualFrom(nil)", func(g *graph.Graph, o Options) Result { return RunResidualFrom(g, o, nil) }},
	}
	for _, states := range []int{2, 5} {
		g, err := gen.Synthetic(1000, 4000, gen.Config{Seed: 5, States: states, Shared: states == 2})
		if err != nil {
			t.Fatalf("Synthetic: %v", err)
		}
		for _, eng := range cold {
			for _, damping := range []float32{0, 0.5} {
				opts := Options{Damping: damping}
				allocs := testing.AllocsPerRun(5, func() {
					g.ResetBeliefs()
					eng.run(g, opts)
				})
				if allocs != 0 {
					t.Errorf("%s on %d nodes states=%d damping=%g: %.1f allocs/run, want 0",
						eng.name, g.NumNodes, states, damping, allocs)
				}
			}
		}
	}
}
