package serve

import (
	"fmt"
	"time"

	"credo/internal/core"
	"credo/internal/graph"
	"credo/internal/telemetry"
)

// DefaultBatchK is the lane capacity of a QueryBatched flush: eight
// lanes keep the K-wide gathers inside one or two cache lines for small
// state counts, which is where the SoA amortization pays most.
const DefaultBatchK = 8

// warmDeltaMax is the per-lane warm-staging gate: a lane adopts the
// snapshot fixpoint only when the fraction of nodes whose clamp differs
// from the snapshot's evidence is at most this. The solo warm path has
// no such gate because residual scheduling is frontier-seeded — its
// cost scales with the delta and degrades gracefully toward a cold run.
// The batch is full-sweep Jacobi: started from a fixpoint the new
// evidence contradicts wholesale, it can oscillate to the iteration cap
// and drag every lane of the flush with it, so large-delta lanes stage
// cold (prior + evidence) instead. A small absolute delta is always a
// frontier-sized perturbation no matter the graph size — on a 4-node
// sprinkler one toggled clamp is 25% of nodes — so deltas up to
// warmDeltaMinNodes warm-start regardless of the fraction.
const (
	warmDeltaMax      = 0.10
	warmDeltaMinNodes = 8
)

// QueryBatched runs up to DefaultBatchK decoded queries as one SoA batch
// flush against the resident — the entry point for tests, servebench and
// the credobench serve experiment; the HTTP plane serves every query
// solo. It bypasses admission control (callers own their concurrency):
// warm staging into a pooled BatchState, one batched node-paradigm run
// over the base's structure, one snapshot publication, per-lane
// responses labelled "batch".
func (s *Server) QueryBatched(r *Resident, rqs []*ResolvedQuery) ([]*Response, error) {
	if len(rqs) == 0 || len(rqs) > DefaultBatchK {
		return nil, fmt.Errorf("serve: batch of %d queries, want 1..%d", len(rqs), DefaultBatchK)
	}
	start := time.Now()

	eng := core.Engine{Selector: s.cfg.Selector, Options: s.cfg.Options}
	if eng.PoolWorkers <= 0 {
		eng.PoolWorkers = s.cfg.Workers
	}

	// The batched engine reads the base's numeric and adjacency arrays
	// directly (no overlay clone), so the run holds the read lock:
	// /v1/update mutations serialize before or after it.
	r.mu.RLock()
	bs := r.batch.Get().(*graph.BatchState)
	defer r.batch.Put(bs)
	gen := r.base.Generation()
	bs.Reset(r.base)
	bs.Used = len(rqs)
	laneWarm := make([]bool, len(rqs))
	warm := false
	for l, rq := range rqs {
		w, err := stageLane(bs, l, rq, &r.snap)
		if err != nil {
			r.mu.RUnlock()
			return nil, fmt.Errorf("serve: %w", err)
		}
		laneWarm[l] = w
		warm = warm || w
	}
	rep := eng.RunBatch(r.base, bs)
	r.mu.RUnlock()
	wall := time.Since(start)

	// Publish one converged lane as the warm snapshot, replacing it whole
	// if the base is still at the generation staged; the last staged lane
	// wins so back-to-back flushes behave like sequential queries.
	for l := len(rqs) - 1; l >= 0; l-- {
		if rep.Result.Lanes[l].Converged {
			r.mu.Lock()
			if r.base.Generation() == gen {
				r.storeLocked(func(dst []float32) { bs.ExtractLane(l, dst) }, rqs[l].evidence)
			}
			r.mu.Unlock()
			break
		}
	}

	out := make([]*Response, len(rqs))
	for l, rq := range rqs {
		lr := rep.Result.Lanes[l]
		out[l] = &Response{
			Graph:      r.Name,
			Engine:     EngineBatch,
			Warm:       laneWarm[l],
			Converged:  lr.Converged,
			Iterations: lr.Iterations,
			Updates:    lr.Updates,
			Edges:      lr.Edges,
			FinalDelta: float64(lr.FinalDelta),
			WallNs:     wall.Nanoseconds(),
			Beliefs:    laneBeliefs(r, bs, l, rq.nodes),
		}
	}
	s.emit(telemetry.Event{
		Kind:      telemetry.KindServe,
		Engine:    "serve.batch",
		Worker:    -1,
		Warm:      warm,
		Converged: rep.Result.Converged,
		Iter:      int32(rep.Result.Iterations),
		BusyNs:    wall.Nanoseconds(),
		Active:    int64(len(rqs)), // occupancy: lanes actually staged
		Items:     DefaultBatchK,   // capacity: lanes available
	})
	return out, nil
}

// stageLane prepares one lane and reports whether it warm-started: lanes
// whose evidence delta against the snapshot passes warmDeltaMax adopt
// the snapshot fixpoint, with changed-and-unclamped nodes restarted from
// their prior — the same staging the solo warm path applies to its
// overlay, done per lane on the SoA state. Lanes with no snapshot or too
// large a delta stage cold (priors plus evidence, the Reset state).
func stageLane(bs *graph.BatchState, l int, rq *ResolvedQuery, snap *warmSnapshot) (bool, error) {
	warm := false
	if snap.ok {
		changed := 0
		diffEvidence(snap.evidence, rq.evidence, func(_, _, _ int32) { changed++ })
		warm = changed <= warmDeltaMinNodes ||
			float64(changed) <= warmDeltaMax*float64(bs.NumNodes)
	}
	if warm {
		bs.SetLaneBeliefs(l, snap.beliefs)
	}
	for _, ev := range rq.evidence {
		if err := bs.Observe(l, ev.node, int(ev.state)); err != nil {
			return false, err
		}
	}
	if !warm {
		return false, nil
	}
	s, kk := bs.States, bs.K
	diffEvidence(snap.evidence, rq.evidence, func(v, _, now int32) {
		// Unchanged clamps keep the fixpoint; re-clamped nodes were just
		// reset by Observe. Only retracted nodes need their beliefs
		// returned to the prior.
		if now != -1 {
			return
		}
		base := int(v) * s * kk
		for j := 0; j < s; j++ {
			bs.Beliefs[base+j*kk+l] = bs.Priors[base+j*kk+l]
		}
	})
	return true, nil
}

// laneBeliefs copies one lane's requested posteriors (all nodes when
// nodes is nil) into an answer table.
func laneBeliefs(r *Resident, bs *graph.BatchState, lane int, nodes []int32) BeliefTable {
	t := BeliefTable{nodes: nodes, states: bs.States, names: r.base.Names}
	if nodes == nil {
		t.values = make([]float32, bs.NumNodes*bs.States)
		bs.ExtractLane(lane, t.values)
		return t
	}
	t.values = make([]float32, len(nodes)*bs.States)
	for i, v := range nodes {
		bs.LaneBelief(lane, v, t.Row(i))
	}
	return t
}
