package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"credo/internal/graph"
	"credo/internal/serve"
)

// churnLCG is a tiny deterministic generator for the evidence streams —
// the study's query sequences must be identical run to run, so the
// deterministic table (update counts, L∞ gaps) can be diffed.
type churnLCG uint64

func (r *churnLCG) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r) >> 16
}

// churnStream builds a sequence of query documents over an n-node
// graph: a base clamp set, then each successive query re-clamps,
// retracts or adds churnPct percent of the nodes (at least one). This
// is the evidence-churn regime knob: 1% is a dashboard ticking over,
// 25% is a client replacing most of its observation set.
func churnStream(n, states, queries int, churnPct int, seed int64) []string {
	rng := churnLCG(seed*2654435761 + int64(churnPct))
	dense := make([]int32, n)
	for i := range dense {
		dense[i] = -1
	}
	clamps := n / 50
	if clamps < 2 {
		clamps = 2
	}
	for c := 0; c < clamps; c++ {
		dense[rng.next()%uint64(n)] = int32(rng.next() % uint64(states))
	}
	doc := func() string {
		var b strings.Builder
		b.WriteString(`{"evidence":[`)
		first := true
		for v, st := range dense {
			if st < 0 {
				continue
			}
			if !first {
				b.WriteByte(',')
			}
			first = false
			fmt.Fprintf(&b, `{"node":"%d","state":%d}`, v, st)
		}
		b.WriteString(`]}`)
		return b.String()
	}
	out := make([]string, 0, queries)
	out = append(out, doc())
	mutations := n * churnPct / 100
	if mutations < 1 {
		mutations = 1
	}
	for q := 1; q < queries; q++ {
		for m := 0; m < mutations; m++ {
			v := rng.next() % uint64(n)
			if dense[v] >= 0 {
				dense[v] = -1
			} else {
				dense[v] = int32(rng.next() % uint64(states))
			}
		}
		out = append(out, doc())
	}
	return out
}

// serveModeStats aggregates one engine mode over one stream (the first,
// necessarily cold, query is excluded from the per-query means).
type serveModeStats struct {
	updates   int64
	edges     int64
	wall      time.Duration
	iters     int
	converged int
	warm      int
	queries   int
}

func (st *serveModeStats) add(resp *serve.Response) {
	st.queries++
	st.updates += resp.Updates
	st.edges += resp.Edges
	st.wall += time.Duration(resp.WallNs)
	st.iters += resp.Iterations
	if resp.Converged {
		st.converged++
	}
	if resp.Warm {
		st.warm++
	}
}

// runServeStream replays docs against a fresh single-resident server in
// one mode. cold forces every query to run without a snapshot;
// otherwise the server warm-starts naturally from the second query on.
// It returns the per-stream stats plus every response past the first,
// so warm posteriors can be diffed against their cold controls.
func runServeStream(g *graph.Graph, cfg Config, engine string, docs []string, cold bool) (serveModeStats, []*serve.Response, error) {
	var st serveModeStats
	s := serve.New(serve.Config{
		Options: cfg.Options,
		Workers: cfg.PoolWorkers,
	})
	r, err := s.Load("bench", g.Clone())
	if err != nil {
		return st, nil, err
	}
	var resps []*serve.Response
	for i, doc := range docs {
		if cold {
			r.InvalidateWarm()
		}
		rq, err := r.DecodeQuery([]byte(doc))
		if err != nil {
			return st, nil, err
		}
		resp, err := s.QueryResident(r, engine, rq)
		if err != nil {
			return st, nil, err
		}
		if i == 0 {
			continue // both modes pay an identical cold first query
		}
		st.add(resp)
		resps = append(resps, resp)
	}
	return st, resps, nil
}

// beliefLinf returns the L∞ distance between two all-nodes belief
// tables.
func beliefLinf(a, b *serve.BeliefTable) float64 {
	var max float64
	for i := 0; i < a.Len(); i++ {
		bv, _ := b.Of(a.Node(i))
		for j, av := range a.Row(i) {
			d := float64(av - bv[j])
			if d < 0 {
				d = -d
			}
			if d > max {
				max = d
			}
		}
	}
	return max
}

// serveCase is one graph × churn regime across the three engine modes.
type serveCase struct {
	name     string
	churnPct int
	nodes    int
	cold     serveModeStats // cold residual (snapshot invalidated per query)
	warm     serveModeStats // warm residual
	relax    serveModeStats // warm relax at cfg.PoolWorkers
	maxLinf  float64        // worst warm-vs-cold posterior gap in the stream
}

// RunServeStudy is the serving study (EXPERIMENTS.md X5): cold vs warm
// re-convergence across evidence-churn regimes, plus batched vs
// unbatched server throughput. Streams of queries whose evidence sets
// drift by 1, 5 and 25% of nodes per step replay against the serving
// layer three ways — cold residual, warm residual, warm relax — and
// the study reports per-query updates, the warm/cold cost ratio, and
// the L∞ distance of every warm posterior from its cold control. The
// expectation under test: warm cost scales with the perturbed
// frontier, not graph size, so the warm win shrinks as churn grows;
// the crossover is the churn rate where the ratio reaches ~1. The L∞
// column tracks fidelity across the same sweep — on loopy topologies
// large evidence deltas can leave the warm run in a different fixpoint
// than a cold start (hysteresis), so drift past WarmTol at high churn
// is a finding, not a failure.
//
// The second half measures batched execution against solo serving: the
// same query set served solo (sequential auto-engine queries, warm
// path enabled — the daemon's path) vs in K-lane batched flushes via
// Server.QueryBatched.
func RunServeStudy(w io.Writer, cfg Config) error {
	type graphCase struct {
		name string
		g    *graph.Graph
	}
	var cases []graphCase
	sprinkler, err := sprinklerMRF()
	if err != nil {
		return err
	}
	cases = append(cases, graphCase{"sprinkler", sprinkler})
	spec, ok := specByAbbrev("GO")
	if !ok {
		return fmt.Errorf("bench: missing spec GO")
	}
	social, err := spec.Generate(2, cfg.Tier, cfg.Seed)
	if err != nil {
		return err
	}
	cases = append(cases, graphCase{spec.Abbrev, social})

	fmt.Fprintf(w, "serve — warm-start serving across evidence-churn regimes (tier %s, %d workers)\n",
		cfg.Tier.Name, cfg.PoolWorkers)
	fmt.Fprintln(w, "streams of 6 queries; per-query means exclude each stream's cold first query")

	const queries = 6
	churns := []int{1, 5, 25}
	var rows []serveCase
	for _, gc := range cases {
		for _, churn := range churns {
			docs := churnStream(gc.g.NumNodes, gc.g.States, queries, churn, cfg.Seed)
			c := serveCase{name: gc.name, churnPct: churn, nodes: gc.g.NumNodes}
			var coldResps, warmResps []*serve.Response
			if c.cold, coldResps, err = runServeStream(gc.g, cfg, serve.EngineResidual, docs, true); err != nil {
				return err
			}
			if c.warm, warmResps, err = runServeStream(gc.g, cfg, serve.EngineResidual, docs, false); err != nil {
				return err
			}
			if c.relax, _, err = runServeStream(gc.g, cfg, serve.EngineRelax, docs, false); err != nil {
				return err
			}
			for i := range warmResps {
				if d := beliefLinf(&warmResps[i].Beliefs, &coldResps[i].Beliefs); d > c.maxLinf {
					c.maxLinf = d
				}
			}
			rows = append(rows, c)
		}
	}

	fmt.Fprintf(w, "\nresidual engine, deterministic (cold = snapshot dropped before every query):\n")
	fmt.Fprintf(w, "%-10s %6s %8s %12s %12s %10s %6s %10s %8s\n",
		"graph", "churn", "nodes", "cold upd/q", "warm upd/q", "warm/cold", "warm", "maxL∞", "withinTol")
	for _, c := range rows {
		q := int64(c.cold.queries)
		fmt.Fprintf(w, "%-10s %5d%% %8d %12d %12d %10s %3d/%-2d %10.2g %8v\n",
			c.name, c.churnPct, c.nodes,
			c.cold.updates/q, c.warm.updates/q,
			fmtRatio(float64(c.warm.updates)/float64(c.cold.updates)),
			c.warm.warm, c.warm.queries,
			c.maxLinf, c.maxLinf <= float64(serve.WarmTol))
	}

	fmt.Fprintln(w, "\nmeasured wall-clock on this host (varies run to run; relax is parallel, its update counts vary too):")
	fmt.Fprintf(w, "%-10s %6s %12s %12s %9s %12s %14s\n",
		"graph", "churn", "cold/qry", "warm/qry", "speedup", "relax/qry", "relax upd/q")
	for _, c := range rows {
		q := time.Duration(c.cold.queries)
		fmt.Fprintf(w, "%-10s %5d%% %12s %12s %9s %12s %14d\n",
			c.name, c.churnPct,
			fmtDur(c.cold.wall/q), fmtDur(c.warm.wall/q),
			fmtRatio(float64(c.cold.wall)/float64(c.warm.wall)),
			fmtDur(c.relax.wall/q),
			c.relax.updates/int64(c.relax.queries))
	}

	// Batched vs unbatched serving, across the churn sweep: one-at-a-time
	// auto-engine queries (warm path on — the daemon's query path) vs
	// K-lane flushes through Server.QueryBatched. At low churn the solo
	// path's warm residual increment is frontier-local and nearly free,
	// so batching — which re-converges every lane with full synchronous
	// sweeps — loses on wall clock; as churn approaches
	// independent-evidence clients (100%) the warm increment degenerates
	// to a cold run and the batch's amortized structure pass claws the
	// gap back toward parity. The sweeps/conv columns watch for the
	// warm-staging pathology the per-lane delta gate exists to prevent —
	// an oscillating warm-staged lane dragging the whole flush to the
	// iteration cap.
	const batchK = serve.DefaultBatchK
	const batchQueries = 16
	fmt.Fprintf(w, "\nbatched vs unbatched serving (%s, %d queries per regime, K=%d):\n",
		spec.Abbrev, batchQueries, batchK)
	fmt.Fprintln(w, "measured wall-clock on this host (varies run to run):")
	fmt.Fprintf(w, "%6s %14s %12s %14s %12s %7s %9s %9s\n",
		"churn", "solo upd", "solo/qry", "batch upd", "batch/qry", "sweeps", "conv", "gain")
	for _, churn := range []int{5, 25, 100} {
		docs := churnStream(social.NumNodes, social.States, batchQueries, churn, cfg.Seed+1)

		soloSrv := serve.New(serve.Config{Options: cfg.Options, Workers: cfg.PoolWorkers})
		soloRes, err := soloSrv.Load("bench", social.Clone())
		if err != nil {
			return err
		}
		var soloUpdates int64
		start := time.Now()
		for _, doc := range docs {
			rq, err := soloRes.DecodeQuery([]byte(doc))
			if err != nil {
				return err
			}
			resp, err := soloSrv.QueryResident(soloRes, serve.EngineAuto, rq)
			if err != nil {
				return err
			}
			soloUpdates += resp.Updates
		}
		soloWall := time.Since(start)

		batchSrv := serve.New(serve.Config{Options: cfg.Options, Workers: cfg.PoolWorkers})
		batchRes, err := batchSrv.Load("bench", social.Clone())
		if err != nil {
			return err
		}
		var batchUpdates int64
		batchSweeps, batchConv := 0, 0
		start = time.Now()
		for at := 0; at < len(docs); at += batchK {
			end := at + batchK
			if end > len(docs) {
				end = len(docs)
			}
			rqs := make([]*serve.ResolvedQuery, 0, end-at)
			for _, doc := range docs[at:end] {
				rq, err := batchRes.DecodeQuery([]byte(doc))
				if err != nil {
					return err
				}
				rqs = append(rqs, rq)
			}
			resps, err := batchSrv.QueryBatched(batchRes, rqs)
			if err != nil {
				return err
			}
			for _, resp := range resps {
				batchUpdates += resp.Updates
				if resp.Iterations > batchSweeps {
					batchSweeps = resp.Iterations
				}
				if resp.Converged {
					batchConv++
				}
			}
		}
		batchWall := time.Since(start)

		fmt.Fprintf(w, "%5d%% %14d %12s %14d %12s %7d %6d/%-2d %9s\n",
			churn, soloUpdates, fmtDur(soloWall/batchQueries),
			batchUpdates, fmtDur(batchWall/batchQueries),
			batchSweeps, batchConv, batchQueries,
			fmtRatio(float64(soloWall)/float64(batchWall)))
	}
	return nil
}
