package serve

import (
	"fmt"
	"math"
	"time"

	"credo/internal/bp"
	"credo/internal/core"
	"credo/internal/graph"
	"credo/internal/relaxbp"
	"credo/internal/telemetry"
)

// warmSnapshot is the resident's warm-start fixpoint and the journal
// that keeps re-basing overlays on it proportional to what changed. It
// is guarded by the resident's mu: read under the read lock (a lease's
// re-base, QueryBatched's staging) and written only under the write
// lock (publication, updates, InvalidateWarm).
type warmSnapshot struct {
	ok bool // a fixpoint is stored

	// beliefs is the fixpoint, N·S floats patched in place row by row.
	// evidence is the node-sorted query clamps it was converged under,
	// as in ResolvedQuery; it is replaced, never mutated, so a query may
	// keep the slice a lease returned after the lock is gone.
	beliefs  []float32
	evidence []evPair

	// rows journals the nodes whose base state or snapshot row changed
	// since epoch began; an overlay re-based at (epoch, pos) is stale in
	// exactly its own dirty rows and rows[pos:].
	epoch uint64
	rows  []int32

	// drift lists the input-free rows a whole-array publication left
	// differing from the base: a cold or batched run writes such a node
	// as its normalised prior, which can differ in the last bit. Warm
	// queries keep that value; the next update restores the base's row,
	// as re-converging from the base would.
	drift []int32
}

// row returns node v's snapshot belief row.
func (w *warmSnapshot) row(v int32, states int) []float32 {
	return w.beliefs[int(v)*states : (int(v)+1)*states]
}

// newEpoch empties the journal. Every overlay re-based in an earlier
// epoch then re-bases whole at its next lease, so an epoch begins
// whenever the snapshot is dropped or replaced whole, and when the
// journal outgrows the node count a whole re-base would copy.
func (w *warmSnapshot) newEpoch() {
	w.epoch++
	w.rows = w.rows[:0]
}

// trim bounds the journal at n entries.
func (w *warmSnapshot) trim(n int) {
	if len(w.rows) > n {
		w.newEpoch()
	}
}

// drop discards the fixpoint.
func (w *warmSnapshot) drop() {
	w.ok, w.evidence, w.drift = false, nil, w.drift[:0]
	w.newEpoch()
}

// overlay is a pooled evidence overlay and what its next lease needs to
// re-base it incrementally: the snapshot epoch and journal position it
// was re-based at (epoch 0: its state is unknown) and the rows it wrote
// since. Whoever writes a row of the leased graph records it in dirty.
type overlay struct {
	g     *graph.Graph
	epoch uint64
	pos   int
	dirty []int32
}

// observe clamps evidence on the overlay.
func (o *overlay) observe(ev evPair) error {
	if err := o.g.Observe(ev.node, int(ev.state)); err != nil {
		return err
	}
	o.dirty = append(o.dirty, ev.node)
	return nil
}

// ran records the rows an engine run moved; a run that does not report
// them (nil) leaves the overlay to be re-based whole.
func (o *overlay) ran(moved []int32) {
	if moved == nil {
		o.epoch = 0
	}
	o.dirty = append(o.dirty, moved...)
}

// lease borrows an overlay and re-bases it under one read lock: the
// base's priors and clamps, and the snapshot's beliefs when the query
// will run warm (warmable and a snapshot is stored), the base's
// otherwise. It returns the snapshot's evidence and the base generation
// read under the same lock: the overlay's beliefs are a fixpoint of
// exactly the state copied, and the generation is the one a fixpoint
// converged on the overlay must be published under.
func (r *Resident) lease(warmable bool) (o *overlay, evidence []evPair, warm bool, gen uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	warm = warmable && r.snap.ok
	return r.leaseLocked(warm), r.snap.evidence, warm, r.base.Generation()
}

// leaseLocked is lease's re-base; the caller holds mu. A warm lease of
// an overlay re-based earlier in the current epoch copies only its dirty
// rows and the journal's rows since, unless those are more than a
// quarter of the graph. Anything else copies the whole state: a cold
// lease, another epoch, or an overlay whose last run did not report its
// moves. Every structural delta drops the snapshot and so starts an
// epoch; a pooled clone whose shape no longer matches (the base grew
// edges since it was pooled) is dropped for a fresh clone.
func (r *Resident) leaseLocked(warm bool) *overlay {
	o := r.pool.Get().(*overlay)
	w := &r.snap
	if warm && o.epoch == w.epoch && len(o.dirty)+len(w.rows)-o.pos <= r.base.NumNodes/4 {
		for _, v := range o.dirty {
			r.rebaseRow(o.g, v)
		}
		for _, v := range w.rows[o.pos:] {
			r.rebaseRow(o.g, v)
		}
	} else {
		if err := o.g.CopyStateFrom(r.base); err != nil {
			o = &overlay{g: r.base.Clone()}
		}
		if warm {
			copy(o.g.Beliefs, w.beliefs)
		}
	}
	o.epoch, o.pos, o.dirty = 0, len(w.rows), o.dirty[:0]
	if warm {
		o.epoch = w.epoch
	}
	return o
}

// rebaseRow copies node v's base prior and clamp and its snapshot belief
// into g.
func (r *Resident) rebaseRow(g *graph.Graph, v int32) {
	copy(g.Prior(v), r.base.Prior(v))
	g.Observed[v] = r.base.Observed[v]
	copy(g.Belief(v), r.snap.row(v, g.States))
}

// release returns an overlay to the lease pool.
func (r *Resident) release(o *overlay) { r.pool.Put(o) }

// publish stores the fixpoint converged on a leased overlay under
// evidence as the warm snapshot, if the base is still at generation gen,
// the one the overlay leased; otherwise the fixpoint describes a base
// that no longer exists and is dropped. moved is the run's Result.Moved,
// already passed to o.ran, and changed the query's evidence delta
// against the snapshot it leased. While the snapshot is still the one
// the overlay re-based from (same epoch and journal position), the two
// are the only rows where they differ, so only those are copied — none
// for an unchanged repeat. Otherwise, after a cold, relax or overtaken
// run, every row is. The caller must not hold mu.
func (r *Resident) publish(o *overlay, changed, moved []int32, evidence []evPair, gen uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.base.Generation() != gen {
		return
	}
	w := &r.snap
	if o.epoch != w.epoch || o.pos != len(w.rows) {
		r.storeLocked(func(dst []float32) { copy(dst, o.g.Beliefs) }, evidence)
		return
	}
	r.patchLocked(o.g, changed)
	r.patchLocked(o.g, moved)
	if len(changed) > 0 {
		w.evidence = append([]evPair(nil), evidence...)
	}
}

// storeLocked replaces the whole snapshot: fill writes every belief row.
// The caller holds mu for writing.
func (r *Resident) storeLocked(fill func(dst []float32), evidence []evPair) {
	w, g := &r.snap, r.base
	if w.beliefs == nil {
		w.beliefs = make([]float32, len(g.Beliefs))
	}
	fill(w.beliefs)
	w.ok, w.evidence = true, append([]evPair(nil), evidence...)
	w.newEpoch()
	w.drift = w.drift[:0]
	for v := int32(0); v < int32(g.NumNodes); v++ {
		if g.InDegree(v) == 0 && !sameBits(w.row(v, g.States), g.Belief(v)) {
			w.drift = append(w.drift, v)
		}
	}
}

// patchLocked copies the listed rows of g into the snapshot and journals
// them. The caller holds mu for writing.
func (r *Resident) patchLocked(g *graph.Graph, rows []int32) {
	w := &r.snap
	for _, v := range rows {
		copy(w.row(v, g.States), g.Belief(v))
	}
	w.rows = append(w.rows, rows...)
	w.trim(g.NumNodes)
}

// sameBits reports whether two rows hold identical bits.
func sameBits(a, b []float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// InvalidateWarm drops the warm-start snapshot (operator hook: after
// reloading a graph in place the old fixpoint is meaningless).
func (r *Resident) InvalidateWarm() {
	r.mu.Lock()
	r.snap.drop()
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

	// Warm path: the residual-family engines resume from the snapshot,
	// whose beliefs the lease copied into the overlay.
	warmable := engine == EngineAuto || engine == EngineResidual || engine == EngineRelax
	ls := tr.Span("lease")
	o, snapEvidence, warm, gen := r.lease(warmable)
	ls.End()
	defer r.release(o)
	g := o.g
	for _, ev := range rq.evidence {
		if err := o.observe(ev); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}

	opts := s.cfg.Options
	if tr != nil {
		opts.Probe = telemetry.Multi(opts.Probe, tr)
	}

	var res bp.Result
	var label string
	var changed []int32
	if warm {
		stage := tr.Span("stage.warm")
		var seeds []int32
		changed, seeds = perturbedFrontier(g, snapEvidence, rq.evidence)
		// The fixpoint stands wherever the evidence still supports it;
		// changed nodes restart from their (possibly re-clamped) prior.
		for _, v := range changed {
			copy(g.Belief(v), g.Prior(v))
		}
		o.dirty = append(o.dirty, changed...)
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
	o.ran(res.Moved)
	tr.SetQuery(label, s.variant, warm)
	if cap := opts.MaxIterations; res.Iterations >= maxIterCap(cap) && !res.Converged {
		tr.MarkIterCap()
	}

	if res.Converged {
		r.publish(o, changed, res.Moved, rq.evidence, gen)
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
