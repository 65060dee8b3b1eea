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

// warmState is one converged fixpoint of the resident's base: the
// beliefs and the evidence they were converged under. A stored warmState
// is immutable — each publication builds a fresh one and swaps the
// pointer under the resident's lock — so readers only need the pointer.
type warmState struct {
	beliefs  []float32
	evidence []evPair // node-sorted query clamps, as in ResolvedQuery
}

// publish stores a converged fixpoint as the warm snapshot if the base
// is still at generation gen, the one the run leased; otherwise the
// fixpoint describes a base that no longer exists and is dropped. The
// copy is made before taking the lock. The caller must not hold mu.
func (r *Resident) publish(beliefs []float32, evidence []evPair, gen uint64) {
	w := &warmState{
		beliefs:  append([]float32(nil), beliefs...),
		evidence: append([]evPair(nil), evidence...),
	}
	r.mu.Lock()
	if r.base.Generation() == gen {
		r.warm = w
	}
	r.mu.Unlock()
}

// InvalidateWarm drops the warm-start snapshot (operator hook: after
// reloading a graph in place the old fixpoint is meaningless).
func (r *Resident) InvalidateWarm() {
	r.mu.Lock()
	r.warm = nil
	r.mu.Unlock()
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

// QueryResident executes one posterior query against the resident:
// lease an overlay, clamp the evidence, pick an engine (the explicit
// override first, the warm path when a snapshot exists and the engine
// family supports seeded starts, the classifier-driven cold selection
// otherwise), run, snapshot on convergence, and copy out the requested
// beliefs before the overlay goes back to the pool.
func (s *Server) QueryResident(r *Resident, engine string, rq *ResolvedQuery) (*Response, error) {
	return s.queryResident(r, engine, rq, nil)
}

// queryResident is QueryResident carrying the request's trace: staging,
// the engine run (the trace joins the run's probe chain, which opens
// and closes the engine's span) and belief extraction each record a
// span, and the run outcome sets the trace's anomaly flags. A nil trace
// is free.
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

	g, snap, gen := r.lease()
	defer r.release(g)
	for _, ev := range rq.evidence {
		if err := g.Observe(ev.node, int(ev.state)); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}

	opts := s.cfg.Options
	if tr != nil {
		opts.Probe = telemetry.Multi(opts.Probe, tr)
	}

	// Warm path: the residual-family engines resume from the snapshot,
	// which lease read together with the overlay's state.
	warmable := engine == EngineAuto || engine == EngineResidual || engine == EngineRelax
	var res bp.Result
	var label string
	warm := false
	if warmable && snap != nil {
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
		r.publish(g.Beliefs, rq.evidence, gen)
	}

	ext := tr.Span("extract")
	beliefs := BeliefTable{nodes: rq.nodes, states: g.States, names: r.base.Names}
	if rq.nodes == nil {
		beliefs.values = append([]float32(nil), g.Beliefs...)
	} else {
		beliefs.values = make([]float32, len(rq.nodes)*g.States)
		for i, v := range rq.nodes {
			copy(beliefs.Row(i), g.Belief(v))
		}
	}
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
		r.mu.RLock()
		md, footprint := r.md, r.footprint
		r.mu.RUnlock()
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
