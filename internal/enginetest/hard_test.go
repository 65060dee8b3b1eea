package enginetest

import (
	"testing"

	"credo/internal/bp"
	"credo/internal/graph"
	"credo/internal/kernel"
)

// TestHardCorpusPinnedDivergence is the divergence regression table: for
// every named hard case, the sequential node sweep must fail to converge
// under exactly the variants pinned non-converging and converge under
// exactly the variants pinned converging, landing within HardTol L∞ of
// the variant-matched log-space oracle. A flip on either side fails
// loudly: a diverging case that starts converging means the graph went
// stale as an adversary (and the corpus lost its discriminating power);
// a converging variant that stops means a robustness regression.
func TestHardCorpusPinnedDivergence(t *testing.T) {
	node := func(g *graph.Graph, o bp.Options) bp.Result { return bp.RunNode(g, o) }
	for _, c := range HardCorpus() {
		for _, v := range HardVariants() {
			want, pinned := c.Expect[v]
			if !pinned {
				t.Fatalf("%s: no pinned expectation for variant %s", c.Name, v)
			}
			r, err := RunHard(c, v, node)
			if err != nil {
				t.Fatal(err)
			}
			if r.Converged != want {
				if want {
					t.Errorf("%s/%s: pinned converging but diverged after %d iterations — robustness regression",
						c.Name, v, r.Iters)
				} else {
					t.Errorf("%s/%s: pinned non-converging but converged in %d iterations — case went stale as an adversary",
						c.Name, v, r.Iters)
				}
				continue
			}
			// The matched oracle is the same sweep schedule, so its
			// convergence must agree with the pin too.
			if r.OracleConverged != want {
				t.Errorf("%s/%s: engine converged=%v but matched log-space oracle converged=%v",
					c.Name, v, r.Converged, r.OracleConverged)
			}
			if want && r.Linf > HardTol {
				t.Errorf("%s/%s: converged %g L∞ from the matched oracle, want <= %g",
					c.Name, v, r.Linf, HardTol)
			}
		}
	}
}

// TestHardCorpusAcceptance pins the headline claim directly: at least
// one named config where vanilla diverges while BOTH damped and circular
// converge within HardTol of the oracle. (The pinned table above covers
// it case by case; this test states the invariant in one place so it
// survives corpus edits.)
func TestHardCorpusAcceptance(t *testing.T) {
	node := func(g *graph.Graph, o bp.Options) bp.Result { return bp.RunNode(g, o) }
	found := 0
	for _, c := range HardCorpus() {
		if c.Expect[kernel.VariantVanilla] || !c.Expect[kernel.VariantDamped] || !c.Expect[kernel.VariantCircular] {
			continue
		}
		ok := true
		for _, v := range HardVariants() {
			r, err := RunHard(c, v, node)
			if err != nil {
				t.Fatal(err)
			}
			switch v {
			case kernel.VariantVanilla:
				ok = ok && !r.Converged
			default:
				ok = ok && r.Converged && r.Linf <= HardTol
			}
		}
		if ok {
			found++
		}
	}
	if found == 0 {
		t.Fatal("no hard case has vanilla diverging with damped AND circular both converging within tolerance")
	}
	t.Logf("%d acceptance cases (vanilla diverges; damped and circular both converge within %g)", found, HardTol)
}

// TestHardCorpusAllEngines drives every fixpoint engine over the full
// hard corpus under every variant against cached variant-matched
// oracles, recording converged-fraction and L∞-vs-oracle per engine.
//
// What is pinned per engine class (from seeded measurement):
//
//   - Synchronous sweep engines (node, edge, ompbp, poolbp) share the
//     Jacobi trajectory, so they must all diverge under vanilla on every
//     case and all converge under damping, within tolerance of the
//     matched oracle. (Parallel engines combine in a different order, so
//     they get the easy-corpus DefaultTol rather than HardTol.)
//   - Circular BP's per-edge correction state is schedule-sensitive. The
//     node-paradigm sweep engines (node, ompbp, poolbp) build their kernel
//     with kernel.NewSweep: every fold reads the reverse messages committed
//     at the previous sweep barrier, the snapshot the parent beliefs come
//     from, so neither node order nor worker timing changes a sweep. They
//     must converge on exactly the pinned cases, within tolerance of the
//     matched oracle. The edge engine publishes each message as it
//     computes it and is not pinned.
//   - Asynchronous engines (residual, relaxbp) choose their own update
//     order and generally land on different fixpoints of the hard
//     graphs, so only structural validity plus damped convergence is
//     asserted.
//
// Every run must produce valid normalized beliefs regardless of
// convergence — divergence may oscillate but must never corrupt state.
func TestHardCorpusAllEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("full engine × variant × corpus sweep is slow")
	}
	type key struct {
		c string
		v kernel.Variant
	}
	circularSweep := map[string]bool{"node": true, "ompbp": true, "poolbp": true}
	oracles := make(map[key]HardOracle)
	for _, c := range HardCorpus() {
		for _, v := range HardVariants() {
			o, err := ComputeHardOracle(c, v)
			if err != nil {
				t.Fatal(err)
			}
			oracles[key{c.Name, v}] = o
		}
	}
	for _, e := range Engines(4) {
		if !e.Fixpoint {
			continue
		}
		stats := make(map[kernel.Variant]*RobustStats)
		for _, v := range HardVariants() {
			stats[v] = &RobustStats{Variant: v}
		}
		for _, c := range HardCorpus() {
			for _, v := range HardVariants() {
				r, err := RunHardWithOracle(c, v, e.RunOpts, oracles[key{c.Name, v}])
				if err != nil {
					t.Fatal(err) // includes belief-validity violations
				}
				s := stats[v]
				s.Cases++
				if r.Converged {
					s.Converged++
					s.TotalIters += r.Iters
					if r.OracleConverged && r.Linf > s.MaxLinf {
						s.MaxLinf = r.Linf
					}
				}
				if !e.Sweep {
					if v == kernel.VariantDamped && !r.Converged {
						t.Errorf("%s/%s/%s: asynchronous engine diverged under damping", e.Name, c.Name, v)
					}
					continue
				}
				switch v {
				case kernel.VariantVanilla:
					if r.Converged {
						t.Errorf("%s/%s: sweep engine converged under vanilla — case went stale as an adversary", e.Name, c.Name)
					}
				case kernel.VariantDamped:
					if !r.Converged {
						t.Errorf("%s/%s: sweep engine diverged under damping", e.Name, c.Name)
					} else if r.Linf > DefaultTol {
						t.Errorf("%s/%s/damped: %g L∞ from matched oracle, want <= %g", e.Name, c.Name, r.Linf, DefaultTol)
					}
				case kernel.VariantCircular:
					if !circularSweep[e.Name] {
						break
					}
					if r.Converged != c.Expect[v] {
						t.Errorf("%s/%s/circular: converged=%v, pinned %v", e.Name, c.Name, r.Converged, c.Expect[v])
					} else if r.Converged && r.Linf > DefaultTol {
						t.Errorf("%s/%s/circular: %g L∞ from matched oracle, want <= %g", e.Name, c.Name, r.Linf, DefaultTol)
					}
				}
			}
		}
		for _, v := range HardVariants() {
			s := stats[v]
			t.Logf("%-9s %-8s converged %d/%d  maxLinf=%.3g  iters(conv)=%d",
				e.Name, v, s.Converged, s.Cases, s.MaxLinf, s.TotalIters)
		}
	}
}

// TestRobustSweepNodeEngine pins the aggregate converged-fraction
// profile the credobench `robust` experiment reports: the node engine
// converges on none of the corpus under vanilla, all of it under
// damping, and exactly the echo-loop cases under circular BP.
func TestRobustSweepNodeEngine(t *testing.T) {
	stats, err := RobustSweep(func(g *graph.Graph, o bp.Options) bp.Result { return bp.RunNode(g, o) })
	if err != nil {
		t.Fatal(err)
	}
	wantConverged := map[kernel.Variant]int{
		kernel.VariantVanilla:  0,
		kernel.VariantDamped:   len(HardCorpus()),
		kernel.VariantCircular: 3, // the hub-skew pair and the bipartite tree
	}
	for _, s := range stats {
		if s.Cases != len(HardCorpus()) {
			t.Errorf("%s: ran %d cases, want %d", s.Variant, s.Cases, len(HardCorpus()))
		}
		if s.Converged != wantConverged[s.Variant] {
			t.Errorf("%s: converged %d/%d, want %d", s.Variant, s.Converged, s.Cases, wantConverged[s.Variant])
		}
		if s.Converged > 0 && s.MaxLinf > HardTol {
			t.Errorf("%s: max L∞ vs matched oracle %g, want <= %g", s.Variant, s.MaxLinf, HardTol)
		}
		t.Logf("%-8s converged=%.2f maxLinf=%.3g", s.Variant, s.ConvergedFraction(), s.MaxLinf)
	}
}
