package enginetest

import (
	"testing"

	"credo/internal/bp"
	"credo/internal/gen"
	"credo/internal/graph"
)

// FuzzDeltaApply drives the dynamic layer with arbitrary mutation
// sequences decoded from the fuzz input: edge adds, prior rewrites
// (including near-degenerate distributions), evidence arrivals and
// retractions, interleaved with mid-stream frontier-seeded
// re-convergences. The differential oracle is a checkpoint chain: at
// every re-convergence point the mutation prefix is rebuilt from
// scratch through Builder/Observe only, warmed with the previous
// checkpoint's oracle fixpoint (except that a node retracted since
// then starts from the prior it held at its retraction, as
// RetractEvidence restarts it), and fully re-run with every node
// seeded. A defect in the overlay merge, the frontier computation or
// the retraction bookkeeping diverges the beliefs at some checkpoint.
// An end-only cold oracle would be wrong here — the fuzzer freely
// composes feedback structures (self loops, duplicated edges) whose
// fixpoint is path-dependent: an intermediate re-convergence may
// legitimately commit to a basin a later mutation cannot undo, so the
// oracle must follow the same checkpoint path. The cold-oracle
// acceptance pin lives in the curated corpus test, whose cases are
// chosen unique-fixpoint. Structural invariants ride along: no panic,
// Validate stays clean, and the delta run converges wherever a cold
// run does.
func FuzzDeltaApply(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 9, 1, 5, 200, 30, 2, 7, 0, 3, 7})
	f.Add([]byte{2, 1, 1, 3, 1, 2, 9, 4, 0, 2, 2, 11, 250, 5})
	f.Add([]byte{1, 0, 255, 0, 1, 1, 0, 255, 2, 2, 0, 3, 2, 1, 2, 5, 9})

	build := func() (*graph.Graph, error) {
		return gen.Synthetic(24, 60, gen.Config{Seed: 17, States: 2, Shared: true, Keep: 0.6})
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128 {
			data = data[:128]
		}
		g, err := build()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		o := bp.Options{}
		if res := bp.RunResidual(g, o); !res.Converged {
			t.Fatalf("cold run did not converge")
		}
		base := append([]float32(nil), g.Beliefs...)
		priors := append([]float32(nil), g.Priors...)
		n := int32(g.NumNodes)

		next := func(i *int) (byte, bool) {
			if *i >= len(data) {
				return 0, false
			}
			b := data[*i]
			*i++
			return b, true
		}

		var applied []gen.Mutation
		checkpoint := 0 // len(applied) at the last oracle checkpoint
		competent := true
		reconverge := func() {
			seeds := g.TakeDeltaSeeds()
			if len(seeds) == 0 || !competent {
				return
			}
			res := bp.RunResidualFrom(g, o, seeds)
			if !res.Converged {
				probe := g.Clone()
				probe.ResetBeliefs()
				if cres := bp.RunResidual(probe, o); cres.Converged {
					t.Fatalf("delta run from %d seeds did not converge but a cold run does", len(seeds))
				}
				competent = false
				return
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("mutated graph invalid after %d mutations: %v", len(applied), err)
			}
			// Oracle checkpoint: rebuild the prefix, warm it from the previous
			// checkpoint's oracle fixpoint, full rerun, compare. Clamped nodes
			// keep their evidence indicators; input-free nodes keep their
			// build-time beliefs (= final prior, which is what the delta layer
			// leaves on them — the engine never touches either kind). A node
			// retracted since the previous checkpoint starts where
			// RetractEvidence restarts it: from its prior at the retraction,
			// replayed here from the mutation list. Its previous-checkpoint
			// belief is a clamp indicator, and a bistable node warmed from
			// that settles in the other basin.
			oracle, err := RebuildMutated(build, applied)
			if err != nil {
				t.Fatalf("rebuild after %d mutations: %v", len(applied), err)
			}
			starts := retractionPriors(priors, g.States, applied, checkpoint)
			for v := int32(0); v < int32(oracle.NumNodes); v++ {
				if !oracle.Observed[v] && oracle.InDegree(v) > 0 {
					start, ok := starts[v]
					if !ok {
						start = base[int(v)*g.States : (int(v)+1)*g.States]
					}
					copy(oracle.Belief(v), start)
				}
			}
			if ores := bp.RunResidual(oracle, o); !ores.Converged {
				competent = false // oscillates from this start either way
				return
			}
			if d := MaxBeliefDiff(oracle, g); d > DefaultTol {
				t.Fatalf("delta fixpoint diverges from the rebuilt warm-rerun oracle by %g after %d mutations", d, len(applied))
			}
			base = append(base[:0], oracle.Beliefs...)
			checkpoint = len(applied)
		}

		i := 0
		for len(applied) < 32 {
			op, ok := next(&i)
			if !ok {
				break
			}
			var m gen.Mutation
			switch op % 5 {
			case 0:
				src, ok1 := next(&i)
				dst, ok2 := next(&i)
				if !ok1 || !ok2 {
					i = len(data)
					continue
				}
				m = gen.Mutation{Kind: gen.MutAddEdge, Src: int32(src) % n, Dst: int32(dst) % n}
			case 1:
				v, ok1 := next(&i)
				w, ok2 := next(&i)
				if !ok1 || !ok2 {
					i = len(data)
					continue
				}
				// Bytes map to (1,256)/257 so priors are valid but may be
				// nearly degenerate — the regime where a stranded or
				// mis-seeded node is most visible.
				p0 := (float32(w) + 1) / 257
				m = gen.Mutation{Kind: gen.MutPrior, Node: int32(v) % n, Prior: []float32{p0, 1 - p0}}
			case 2:
				v, ok1 := next(&i)
				s, ok2 := next(&i)
				if !ok1 || !ok2 {
					i = len(data)
					continue
				}
				m = gen.Mutation{Kind: gen.MutEvidence, Node: int32(v) % n, State: int(s) % g.States}
			case 3:
				v, ok := next(&i)
				if !ok {
					continue
				}
				m = gen.Mutation{Kind: gen.MutRetract, Node: int32(v) % n}
			case 4:
				// Mid-stream re-convergence: the frontier drains here, so a
				// bug that only shows when mutations land on an
				// already-re-converged warm state is reachable.
				reconverge()
				continue
			}
			if err := m.Apply(g); err != nil {
				// Semantically invalid at this point in the stream (e.g. a
				// retraction of an unclamped node): rejected without effect.
				continue
			}
			applied = append(applied, m)
		}
		reconverge()

		if err := g.Validate(); err != nil {
			t.Fatalf("mutated graph invalid after %d mutations: %v", len(applied), err)
		}
	})
}

// retractionPriors returns, for every node retracted among muts[from:],
// the prior it held at its last such retraction: the build-time priors
// replayed through the prior drifts of muts, normalized as UpdatePrior
// normalizes them.
func retractionPriors(priors []float32, states int, muts []gen.Mutation, from int) map[int32][]float32 {
	prior := append([]float32(nil), priors...)
	starts := make(map[int32][]float32)
	for i, m := range muts {
		p := prior[int(m.Node)*states : (int(m.Node)+1)*states]
		switch {
		case m.Kind == gen.MutPrior:
			copy(p, m.Prior)
			graph.Normalize(p)
		case m.Kind == gen.MutRetract && i >= from:
			starts[m.Node] = append([]float32(nil), p...)
		}
	}
	return starts
}
