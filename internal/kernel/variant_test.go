package kernel_test

import (
	"math"
	"math/rand"
	"testing"

	"credo/internal/gen"
	"credo/internal/graph"
	"credo/internal/kernel"
)

// buildRing builds an n-node undirected ring (both directed edges per
// link) with random per-edge matrices and random priors, so every edge
// has a reverse partner and the circular correction is active.
func buildRing(t testing.TB, states, n int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(states)
	prior := make([]float32, states)
	for i := 0; i < n; i++ {
		gen.RandomDistribution(rng, prior)
		if _, err := b.AddNode(prior); err != nil {
			t.Fatalf("AddNode: %v", err)
		}
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		m := gen.RandomJointMatrix(rng, states, 0.7)
		if err := b.AddEdge(int32(i), int32(j), &m); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
		m2 := gen.RandomJointMatrix(rng, states, 0.7)
		if err := b.AddEdge(int32(j), int32(i), &m2); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// TestVariantStrings pins the flag vocabulary: String and ParseVariant
// are inverses over every variant, and unknown names error.
func TestVariantStrings(t *testing.T) {
	for _, v := range kernel.Variants() {
		got, err := kernel.ParseVariant(v.String())
		if err != nil {
			t.Errorf("ParseVariant(%q): %v", v.String(), err)
		}
		if got != v {
			t.Errorf("ParseVariant(%q) = %v, want %v", v.String(), got, v)
		}
	}
	if v, err := kernel.ParseVariant(""); err != nil || v != kernel.VariantVanilla {
		t.Errorf("ParseVariant(\"\") = %v, %v; want vanilla, nil", v, err)
	}
	if _, err := kernel.ParseVariant("bogus"); err == nil {
		t.Error("ParseVariant(\"bogus\") did not error")
	}
}

// TestDampedNodeUpdateBlends checks the kernel's damping is exactly the
// convex blend (1−d)·b_new + d·b_old of the vanilla update with the
// previous belief.
func TestDampedNodeUpdateBlends(t *testing.T) {
	for _, d := range []float32{0.25, 0.5, 0.9} {
		for _, mode := range []kernel.Mode{kernel.Specialized, kernel.Generic, kernel.LogSpace} {
			g := buildStar(t, 3, 5, false, 42)
			vk := kernel.New(g, kernel.Config{Mode: mode})
			dk := kernel.New(g, kernel.Config{Mode: mode, Damping: d})
			var sc kernel.Scratch
			vanilla := make([]float32, 3)
			damped := make([]float32, 3)
			vk.NodeUpdate(&sc, vanilla, 0, g.Beliefs)
			dk.NodeUpdate(&sc, damped, 0, g.Beliefs)
			old := g.Belief(0)
			for j := range damped {
				want := (1-d)*vanilla[j] + d*old[j]
				if diff := math.Abs(float64(damped[j] - want)); diff > 1e-6 {
					t.Errorf("mode=%v d=%g entry %d: damped=%v want blend %v", mode, d, j, damped[j], want)
				}
			}
		}
	}
}

// TestCircularNoReverseMatchesVanilla pins the correction's no-op
// guarantee: on a DAG (a star has no reverse edges) the circular kernel
// computes the same update as vanilla — the correction state exists but
// every rev index is -1.
func TestCircularNoReverseMatchesVanilla(t *testing.T) {
	for _, s := range []int{2, 3, 5} {
		g := buildStar(t, s, 6, false, int64(s)*9+1)
		vk := kernel.New(g, kernel.Config{Mode: kernel.Specialized})
		ck := kernel.New(g, kernel.Config{Mode: kernel.Specialized, Alpha: 1})
		var sc kernel.Scratch
		vanilla := make([]float32, s)
		circ := make([]float32, s)
		vk.NodeUpdate(&sc, vanilla, 0, g.Beliefs)
		ck.NodeUpdate(&sc, circ, 0, g.Beliefs)
		if d := maxDiff(circ, vanilla); d > 1e-6 {
			t.Errorf("states=%d: circular-on-DAG L∞ vs vanilla = %g", s, d)
		}
	}
}

// TestCircularFirstSweepMatchesVanilla pins the uniform-initialization
// guarantee on a graph that DOES have reverse edges: the stored reverse
// messages start uniform, and dividing by a uniform distribution shifts
// every log entry equally, so the first sweep's corrected messages are
// the vanilla messages.
func TestCircularFirstSweepMatchesVanilla(t *testing.T) {
	g := buildRing(t, 3, 8, 7)
	vk := kernel.New(g, kernel.Config{Mode: kernel.Specialized})
	ck := kernel.New(g, kernel.Config{Mode: kernel.Specialized, Alpha: 1})
	var sc kernel.Scratch
	vanilla := make([]float32, 3)
	circ := make([]float32, 3)
	// One node's first update, before any message has been published.
	vk.NodeUpdate(&sc, vanilla, 0, g.Beliefs)
	ck.NodeUpdate(&sc, circ, 0, g.Beliefs)
	if d := maxDiff(circ, vanilla); d > 1e-6 {
		t.Errorf("first-sweep circular L∞ vs vanilla = %g", d)
	}
}

// TestVariantKernelsAllocFree locks the steady-state allocation contract
// of both robust variants: once the kernel is built (the circular
// edge-state is a construction-time cost), per-update work lives
// entirely in the caller's Scratch — zero allocations, same as vanilla.
func TestVariantKernelsAllocFree(t *testing.T) {
	g := buildRing(t, 4, 16, 11)
	configs := map[string]kernel.Config{
		"vanilla":  {Mode: kernel.Specialized},
		"damped":   {Mode: kernel.Specialized, Damping: 0.5},
		"circular": {Mode: kernel.Specialized, Alpha: 1},
	}
	for name, cfg := range configs {
		k := kernel.New(g, cfg)
		var sc kernel.Scratch
		out := make([]float32, 4)
		allocs := testing.AllocsPerRun(10, func() {
			for v := int32(0); v < int32(g.NumNodes); v++ {
				k.NodeUpdate(&sc, out, v, g.Beliefs)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per sweep, want 0", name, allocs)
		}
	}
}

// FuzzDampedKernel drives the damped kernel with fuzzer-chosen widths,
// beliefs and damping factors in (0,1], asserting the update never
// produces NaN/Inf or an unnormalized belief and that the specialized
// and generic paths agree to float32 round-off.
func FuzzDampedKernel(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint16(500), int64(1))
	f.Add(uint8(4), uint8(1), uint16(999), int64(7))
	f.Add(uint8(32), uint8(8), uint16(1), int64(42))
	f.Add(uint8(7), uint8(5), uint16(250), int64(-3))
	f.Fuzz(func(t *testing.T, statesRaw, parentsRaw uint8, dampRaw uint16, seed int64) {
		states := 1 + int(statesRaw)%graph.MaxStates
		parents := 1 + int(parentsRaw)%8
		damping := float32(1+dampRaw%1000) / 1000 // (0, 1]
		g := buildStar(t, states, parents, false, seed)
		// Scribble random beliefs over the parents so the fold sees
		// arbitrary (normalized) messages, not just priors.
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for v := 1; v <= parents; v++ {
			gen.RandomDistribution(rng, g.Beliefs[v*states:(v+1)*states])
		}
		spec := kernel.New(g, kernel.Config{Mode: kernel.Specialized, Damping: damping})
		genk := kernel.New(g, kernel.Config{Mode: kernel.Generic, Damping: damping})
		var sc kernel.Scratch
		specOut := make([]float32, states)
		genOut := make([]float32, states)
		spec.NodeUpdate(&sc, specOut, 0, g.Beliefs)
		genk.NodeUpdate(&sc, genOut, 0, g.Beliefs)
		for name, out := range map[string][]float32{"specialized": specOut, "generic": genOut} {
			var sum float64
			for j, x := range out {
				if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
					t.Fatalf("%s states=%d parents=%d d=%g: entry %d is %v", name, states, parents, damping, j, x)
				}
				if x < 0 || x > 1 {
					t.Fatalf("%s states=%d parents=%d d=%g: entry %d = %v outside [0,1]", name, states, parents, damping, j, x)
				}
				sum += float64(x)
			}
			if math.Abs(sum-1) > 1e-3 {
				t.Fatalf("%s states=%d parents=%d d=%g: belief sums to %v", name, states, parents, damping, sum)
			}
		}
		if d := maxDiff(specOut, genOut); d > 1e-5 {
			t.Fatalf("states=%d parents=%d d=%g: specialized vs generic L∞ = %g", states, parents, damping, d)
		}
	})
}

// TestSweepUpdatesIgnoreSweepOrder pins the sweep discipline at the
// kernel level: under NewSweep a node's circular update reads only the
// messages EndSweep committed, so visiting one sweep's nodes in forward
// or reverse order gives bitwise the same beliefs, sweep after sweep. The
// live kernel (New) reads what the current sweep already published, and
// on the same ring its result depends on the order.
func TestSweepUpdatesIgnoreSweepOrder(t *testing.T) {
	const s = 3
	g := buildRing(t, s, 8, 7)
	cfg := kernel.Config{Mode: kernel.Specialized, Alpha: 1}
	sweeps := func(k kernel.Kernel, reverse bool) []float32 {
		from := append([]float32(nil), g.Beliefs...)
		to := make([]float32, len(from))
		var sc kernel.Scratch
		for it := 0; it < 5; it++ {
			for i := 0; i < g.NumNodes; i++ {
				v := int32(i)
				if reverse {
					v = int32(g.NumNodes - 1 - i)
				}
				k.NodeUpdate(&sc, to[int(v)*s:int(v)*s+s], v, from)
			}
			k.EndSweep()
			from, to = to, from
		}
		return from
	}
	same := func(a, b []float32) bool {
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				return false
			}
		}
		return true
	}
	if !same(sweeps(kernel.NewSweep(g, cfg), false), sweeps(kernel.NewSweep(g, cfg), true)) {
		t.Error("sweep kernel: forward and reverse node order give different beliefs")
	}
	if same(sweeps(kernel.New(g, cfg), false), sweeps(kernel.New(g, cfg), true)) {
		t.Error("live kernel ignores node order too: the ring does not exercise the correction")
	}
}
