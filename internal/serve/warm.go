package serve

import (
	"fmt"
	"time"

	"credo/internal/bp"
	"credo/internal/core"
	"credo/internal/graph"
	"credo/internal/relaxbp"
	"credo/internal/telemetry"
)

// warmState is one converged fixpoint: the beliefs, the evidence they
// were converged under, and the base-graph mutation generation the run
// observed. A stored warmState is immutable — Query builds a fresh one
// per convergence and swaps the pointer under warmMu — so readers only
// need the pointer.
type warmState struct {
	beliefs  []float32
	evidence []evPair // node-sorted query clamps, as in ResolvedQuery
	gen      uint64   // base generation the fixpoint was converged against
}

// snapshot returns the current warm state, or nil when none exists or
// the stored one is stale — its generation differs from the base's,
// meaning the base was mutated (a /v1/update delta, an operator edit)
// after the fixpoint was taken. Seeding from a stale fixpoint would
// re-converge toward the wrong graph; generation keying makes staleness
// structurally impossible instead of a protocol the mutating paths must
// each remember (the bug this replaces: only an explicit InvalidateWarm
// call dropped the snapshot, and the mutation paths didn't call it).
func (r *Resident) snapshot() *warmState {
	r.warmMu.Lock()
	w := r.warm
	r.warmMu.Unlock()
	if w == nil || w.gen != r.Generation() {
		return nil
	}
	return w
}

// storeSnapshot publishes a converged fixpoint as the new warm state,
// keyed by the base generation the run leased its state at.
func (r *Resident) storeSnapshot(g *graph.Graph, evidence []evPair, gen uint64) {
	r.storeSnapshotBeliefs(g.Beliefs, evidence, gen)
}

// storeSnapshotBeliefs is storeSnapshot over a bare belief array — the
// batched path extracts one lane of its SoA state and publishes it
// here. Publication is monotonic in generation: a fixpoint computed
// against a generation the base has since left behind must not clobber
// a fresher snapshot (the race: a query leased at generation G
// converges after a /v1/update has already moved the base to G+1 and
// re-published — the late store would otherwise overwrite the G+1
// fixpoint with one missing the update's changes, and the next
// non-structural update would adopt it as its re-convergence start).
// The comparison is against the stored snapshot rather than
// r.Generation() because the batched flush publishes while holding
// baseMu.RLock — a nested RLock behind a waiting writer deadlocks.
func (r *Resident) storeSnapshotBeliefs(beliefs []float32, evidence []evPair, gen uint64) {
	w := &warmState{
		beliefs:  append([]float32(nil), beliefs...),
		evidence: append([]evPair(nil), evidence...),
		gen:      gen,
	}
	r.warmMu.Lock()
	if r.warm == nil || r.warm.gen <= gen {
		r.warm = w
	}
	r.warmMu.Unlock()
}

// InvalidateWarm drops the warm-start snapshot (operator hook: after
// reloading a graph in place the old fixpoint is meaningless).
func (r *Resident) InvalidateWarm() {
	r.warmMu.Lock()
	r.warm = nil
	r.warmMu.Unlock()
}

// invalidateWarmThrough drops the warm-start snapshot only if its
// generation is at or below gen — the update path's invalidation: it
// must drop the snapshot it decided not to carry forward without
// destroying a fresher one a racing later update may have published in
// the meantime.
func (r *Resident) invalidateWarmThrough(gen uint64) {
	r.warmMu.Lock()
	if r.warm != nil && r.warm.gen <= gen {
		r.warm = nil
	}
	r.warmMu.Unlock()
}

// diffEvidence merges two node-sorted evidence lists and calls fn, in
// ascending node order, for every node whose clamp differs between them:
// added (was == -1), retracted (now == -1) or re-stated. It costs
// O(len(old)+len(cur)) whatever the graph size, which is what keeps warm
// staging proportional to the evidence delta.
func diffEvidence(old, cur []evPair, fn func(v, was, now int32)) {
	i, j := 0, 0
	for i < len(old) || j < len(cur) {
		switch {
		case j == len(cur) || (i < len(old) && old[i].node < cur[j].node):
			fn(old[i].node, old[i].state, -1)
			i++
		case i == len(old) || cur[j].node < old[i].node:
			fn(cur[j].node, -1, cur[j].state)
			j++
		default:
			if old[i].state != cur[j].state {
				fn(cur[j].node, old[i].state, cur[j].state)
			}
			i++
			j++
		}
	}
}

// perturbedFrontier returns the warm-start seed set for moving from the
// snapshot's evidence to the query's: every node whose clamp changed
// (added, retracted or re-stated) plus each such node's out-neighbours —
// exactly the nodes whose residual the evidence delta can move before
// any update is applied. The returned changed list is the nodes whose
// beliefs must not be taken from the snapshot. Identical evidence yields
// an empty, non-nil seed set: the seeded entry points read nil as "seed
// every node", a cold start.
func perturbedFrontier(g *graph.Graph, old, cur []evPair) (changed, seeds []int32) {
	seeds = []int32{}
	diffEvidence(old, cur, func(v, _, _ int32) {
		changed = append(changed, v)
		seeds = append(seeds, v)
		for _, e := range g.OutEdges[g.OutOffsets[v]:g.OutOffsets[v+1]] {
			seeds = append(seeds, g.EdgeDst[e])
		}
	})
	return changed, seeds
}

// Response is the wire shape of a served posterior query.
type Response struct {
	Graph      string               `json:"graph"`
	Engine     string               `json:"engine"`
	Warm       bool                 `json:"warm"`
	Converged  bool                 `json:"converged"`
	Iterations int                  `json:"iterations"`
	Updates    int64                `json:"updates"`
	Edges      int64                `json:"edges"`
	FinalDelta float64              `json:"final_delta"`
	WallNs     int64                `json:"wall_ns"`
	Beliefs    map[string][]float32 `json:"beliefs"`
}

// QueryResident executes one posterior query against the resident:
// lease an overlay, clamp the evidence, pick an engine (the explicit
// override first, the warm path when a snapshot exists and the engine
// family supports seeded starts, the classifier-driven cold selection
// otherwise), run, snapshot on convergence, and marshal the requested
// beliefs.
func (s *Server) QueryResident(r *Resident, engine string, rq *ResolvedQuery) (*Response, error) {
	return s.queryResident(r, engine, rq, nil)
}

// queryResident is QueryResident carrying the request's trace: staging,
// the engine run (via Options.Trace plus the probe chain) and belief
// extraction each record a span, and the run outcome sets the trace's
// anomaly flags. A nil trace is free.
func (s *Server) queryResident(r *Resident, engine string, rq *ResolvedQuery, tr *telemetry.Trace) (*Response, error) {
	engine, err := ParseEngine(engine)
	if err != nil {
		return nil, err
	}
	if engine == EngineBatch {
		// Batched execution is reachable only through QueryBatched; an
		// explicit batch override runs as auto.
		engine = EngineAuto
	}
	start := time.Now()

	g, gen := r.lease()
	defer r.release(g)
	for _, ev := range rq.evidence {
		if err := g.Observe(ev.node, int(ev.state)); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}

	opts := s.cfg.Options
	opts.Probe = s.cfg.Probe
	if tr != nil {
		opts.Trace = tr
		opts.Probe = telemetry.Multi(opts.Probe, tr)
	}

	// Warm path: the residual-family engines resume from the snapshot.
	// The snapshot must match the generation the overlay was leased at —
	// not merely the current one — or a base mutation racing this query
	// could pair a new-generation fixpoint with an old-generation overlay.
	warmable := engine == EngineAuto || engine == EngineResidual || engine == EngineRelax
	var res bp.Result
	var label string
	warm := false
	if snap := r.snapshot(); warmable && snap != nil && snap.gen == gen {
		warm = true
		stage := tr.Span("stage.warm")
		changed, seeds := perturbedFrontier(g, snap.evidence, rq.evidence)
		// Adopt the fixpoint everywhere the evidence still supports it;
		// changed nodes restart from their (possibly re-clamped) prior.
		copy(g.Beliefs, snap.beliefs)
		for _, v := range changed {
			copy(g.Belief(v), g.Prior(v))
		}
		stage.End()
		if engine == EngineRelax {
			label = EngineRelax
			res = relaxbp.RunFrom(g, relaxbp.Options{Options: opts, Workers: s.cfg.Workers}, seeds)
		} else {
			label = EngineResidual
			res = bp.RunResidualFrom(g, opts, seeds)
		}
	} else {
		label, res, err = s.runCold(r, g, engine, opts, tr)
		if err != nil {
			return nil, err
		}
	}
	tr.SetQuery(label, s.variant, warm)
	if cap := opts.MaxIterations; res.Iterations >= maxIterCap(cap) && !res.Converged {
		tr.MarkIterCap()
	}

	if res.Converged {
		r.storeSnapshot(g, rq.evidence, gen)
		if warm {
			r.warmMu.Lock()
			r.warmed++
			r.warmMu.Unlock()
		}
	}

	ext := tr.Span("extract")
	beliefs := marshalBeliefs(r, g, rq.nodes)
	ext.End()
	resp := &Response{
		Graph:      r.Name,
		Engine:     label,
		Warm:       warm,
		Converged:  res.Converged,
		Iterations: res.Iterations,
		Updates:    res.Ops.NodesProcessed,
		Edges:      res.Ops.EdgesProcessed,
		FinalDelta: float64(res.FinalDelta),
		WallNs:     time.Since(start).Nanoseconds(),
		Beliefs:    beliefs,
	}
	return resp, nil
}

// maxIterCap resolves the effective iteration cap of an options
// template (zero means the bp default), the bound the iter_cap anomaly
// flag is judged against.
func maxIterCap(configured int) int {
	if configured > 0 {
		return configured
	}
	return bp.DefaultMaxIterations
}

// runCold dispatches a cold start: an explicit engine when overridden,
// the selector's choice (platform rule + Node/Edge classifier) for auto.
func (s *Server) runCold(r *Resident, g *graph.Graph, engine string, opts bp.Options, tr *telemetry.Trace) (string, bp.Result, error) {
	// The lease re-bases node state only, so the overlay still holds the
	// messages of whatever ran on it last. The edge-paradigm engines
	// start from the messages; give them the uniform ones every base
	// holds. The fill costs O(E·S), far below any cold run.
	g.ResetMessages()
	eng := core.Engine{Selector: s.cfg.Selector, Options: opts}
	var impl core.Implementation
	switch engine {
	case EngineAuto:
		sel := tr.Span("select")
		md, footprint := r.stats()
		impl = eng.Choose(md, footprint)
		sel.End()
	case EngineNode:
		impl = core.CNode
	case EngineEdge:
		impl = core.CEdge
	case EngineResidual:
		// Sequential residual scheduling has no core implementation id;
		// run it directly.
		return EngineResidual, bp.RunResidualFrom(g, opts, nil), nil
	case EngineRelax:
		return EngineRelax, relaxbp.Run(g, relaxbp.Options{Options: opts, Workers: s.cfg.Workers}), nil
	case EnginePool:
		impl = core.Pool
		if eng.PoolWorkers <= 0 {
			eng.PoolWorkers = s.cfg.Workers
		}
	}
	if impl == core.Relax && eng.RelaxWorkers <= 0 {
		eng.RelaxWorkers = s.cfg.Workers
	}
	rep, err := eng.RunWith(g, impl)
	if err != nil {
		return "", bp.Result{}, fmt.Errorf("serve: %w", err)
	}
	return rep.Implementation.String(), rep.Result, nil
}

// marshalBeliefs copies the requested nodes' posteriors (all nodes when
// nodes is nil) into a name-keyed response map.
func marshalBeliefs(r *Resident, g *graph.Graph, nodes []int32) map[string][]float32 {
	if nodes == nil {
		out := make(map[string][]float32, g.NumNodes)
		for v := int32(0); v < int32(g.NumNodes); v++ {
			out[r.nodeLabel(v)] = append([]float32(nil), g.Belief(v)...)
		}
		return out
	}
	out := make(map[string][]float32, len(nodes))
	for _, v := range nodes {
		out[r.nodeLabel(v)] = append([]float32(nil), g.Belief(v)...)
	}
	return out
}
