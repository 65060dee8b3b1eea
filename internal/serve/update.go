package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"credo/internal/bp"
	"credo/internal/features"
	"credo/internal/gen"
	"credo/internal/graph"
)

// This file is the dynamic-graph entry of the serving layer: POST
// /v1/update applies a batch of graph deltas — evidence arrivals and
// retractions, prior drifts, edge adds — to the resident base in place
// and re-converges the warm snapshot from the delta frontier, so the
// next query warm-starts against the mutated world instead of paying a
// cold run for it. Structural deltas (edge adds) reshape the graph;
// they drop the warm snapshot, and the next query re-converges cold.

// updatePayload is the POST /v1/update body: an ordered list of delta
// operations applied atomically per operation (a rejected operation
// aborts the rest of the list but does not roll back the ones before
// it — the response reports how many landed).
type updatePayload struct {
	Updates []updateOp `json:"updates"`
}

// updateOp is one wire-shape delta. Op selects the kind; exactly the
// fields of that kind are read:
//
//	{"op":"evidence","node":N,"state":S}   clamp node N to state S
//	{"op":"retract","node":N}              lift a previous update clamp
//	{"op":"prior","node":N,"prior":[...]}  replace N's prior
//	{"op":"edge","src":A,"dst":B}          add edge A->B ("mat" gives the
//	                                       row-major joint matrix, required
//	                                       on per-edge-matrix graphs)
type updateOp struct {
	Op    string    `json:"op"`
	Node  string    `json:"node,omitempty"`
	State *int      `json:"state,omitempty"`
	Prior []float32 `json:"prior,omitempty"`
	Src   string    `json:"src,omitempty"`
	Dst   string    `json:"dst,omitempty"`
	Mat   []float32 `json:"mat,omitempty"`
}

// ResolvedUpdate is a decoded, validated update bound to one resident.
type ResolvedUpdate struct {
	muts []gen.Mutation
}

// UpdateResponse is the wire shape of an applied update: how much
// landed, where the graph's generation moved, and what the warm
// re-convergence cost (zero updates when there was no snapshot to
// re-converge or the delta was structural).
type UpdateResponse struct {
	Graph      string `json:"graph"`
	Applied    int    `json:"applied"`
	Generation uint64 `json:"generation"`
	Structural bool   `json:"structural"`
	Warm       bool   `json:"warm"`
	Converged  bool   `json:"converged"`
	Updates    int64  `json:"updates"`
	WallNs     int64  `json:"wall_ns"`
	// Error is set (by the HTTP handler) when an operation was rejected
	// mid-batch: the applied prefix stays committed, and Applied and
	// Generation tell the client how much landed and where the graph
	// moved, so it can resync without parsing the error string.
	Error string `json:"error,omitempty"`
}

// DecodeUpdate parses and validates an update document against the
// resident's node space, with the same strictness contract as
// DecodeQuery: unknown fields, trailing data, unresolvable nodes,
// malformed distributions and unknown ops all error and never panic.
// Validation that depends on graph state at apply time (retracting a
// node that is not update-clamped, matrix mode mismatches) is left to
// the delta layer.
func (r *Resident) DecodeUpdate(data []byte) (*ResolvedUpdate, error) {
	if len(data) > maxQueryBytes {
		return nil, fmt.Errorf("serve: update document exceeds %d bytes", maxQueryBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p updatePayload
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("serve: decode update: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("serve: trailing data after update document")
	}
	if len(p.Updates) == 0 {
		return nil, fmt.Errorf("serve: update document has no operations")
	}

	ru := &ResolvedUpdate{muts: make([]gen.Mutation, 0, len(p.Updates))}
	states := r.base.States
	for i, op := range p.Updates {
		switch op.Op {
		case "evidence":
			v, err := r.resolveNode(op.Node)
			if err != nil {
				return nil, fmt.Errorf("serve: update %d: %w", i, err)
			}
			if op.State == nil {
				return nil, fmt.Errorf("serve: update %d: evidence for %q has no state", i, op.Node)
			}
			if *op.State < 0 || *op.State >= states {
				return nil, fmt.Errorf("serve: update %d: state %d out of range [0,%d)", i, *op.State, states)
			}
			ru.muts = append(ru.muts, gen.Mutation{Kind: gen.MutEvidence, Node: v, State: *op.State})
		case "retract":
			v, err := r.resolveNode(op.Node)
			if err != nil {
				return nil, fmt.Errorf("serve: update %d: %w", i, err)
			}
			ru.muts = append(ru.muts, gen.Mutation{Kind: gen.MutRetract, Node: v})
		case "prior":
			v, err := r.resolveNode(op.Node)
			if err != nil {
				return nil, fmt.Errorf("serve: update %d: %w", i, err)
			}
			if len(op.Prior) != states {
				return nil, fmt.Errorf("serve: update %d: prior has %d entries, want %d", i, len(op.Prior), states)
			}
			ru.muts = append(ru.muts, gen.Mutation{
				Kind: gen.MutPrior, Node: v,
				Prior: append([]float32(nil), op.Prior...),
			})
		case "edge":
			src, err := r.resolveNode(op.Src)
			if err != nil {
				return nil, fmt.Errorf("serve: update %d: src: %w", i, err)
			}
			dst, err := r.resolveNode(op.Dst)
			if err != nil {
				return nil, fmt.Errorf("serve: update %d: dst: %w", i, err)
			}
			var mat *graph.JointMatrix
			if len(op.Mat) > 0 {
				if len(op.Mat) != states*states {
					return nil, fmt.Errorf("serve: update %d: matrix has %d entries, want %d", i, len(op.Mat), states*states)
				}
				mat = &graph.JointMatrix{
					Rows: uint32(states), Cols: uint32(states),
					Data: append([]float32(nil), op.Mat...),
				}
			}
			ru.muts = append(ru.muts, gen.Mutation{Kind: gen.MutAddEdge, Src: src, Dst: dst, Mat: mat})
		default:
			return nil, fmt.Errorf("serve: update %d: unknown op %q (want evidence, retract, prior or edge)", i, op.Op)
		}
	}
	return ru, nil
}

// UpdateResident applies the decoded delta batch to the resident's base
// graph and carries the warm snapshot forward. It holds the resident's
// write lock for the whole call, so no query sees the mutated base
// beside a snapshot that is not its fixpoint: a query arriving meanwhile
// waits and then leases the outcome. There are four outcomes:
//
//   - An operation was rejected after earlier ones moved the base: the
//     snapshot is dropped.
//   - Nothing moved a node (no delta seeds; a prior parked on a clamped
//     node bumps the generation but changes no fixpoint): the snapshot
//     is kept.
//   - The delta was structural, there is no snapshot, or the frontier is
//     so large that features.RecommendDelta says re-convergence would
//     touch most of the graph anyway: the snapshot is dropped and the
//     next query runs cold.
//   - Otherwise the snapshot is re-converged on an overlay: mutated base
//     state, the snapshot's still-valid query clamps, the old fixpoint
//     beliefs, and the delta frontier (changed nodes plus out-neighbours,
//     from TakeDeltaSeeds) as the seeds of bp.RunResidualFrom. The
//     mutation pays the frontier-sized re-convergence once, instead of
//     every later query paying a cold run, and only the rows it touched
//     are patched into the snapshot; a run that does not converge drops
//     the snapshot.
//
// An operation rejected by the delta layer aborts the remainder; the
// error reports the position, and the returned response (non-nil even
// on error) reports the committed prefix: Applied and Generation tell
// the caller how much landed and where the graph moved, so a client
// can resync without parsing the position out of the error string.
func (s *Server) UpdateResident(r *Resident, ru *ResolvedUpdate) (*UpdateResponse, error) {
	start := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()

	genBefore := r.base.Generation()
	structBefore := r.base.StructuralGeneration()
	applied := 0
	var applyErr error
	for i, m := range ru.muts {
		if err := m.Apply(r.base); err != nil {
			applyErr = fmt.Errorf("serve: update %d (%s): %w", i, m.Kind, err)
			break
		}
		applied++
	}
	seeds := r.base.TakeDeltaSeeds()
	structural := r.base.StructuralGeneration() != structBefore
	if structural {
		// TakeDeltaSeeds merged the new edges, so the cached statistics —
		// the registry listing, the engine selector's inputs, the churn
		// rule's node count — describe a graph that no longer exists.
		r.md, r.footprint = r.base.Stats(), r.base.MemoryFootprint()
	}
	resp := &UpdateResponse{
		Graph:      r.Name,
		Applied:    applied,
		Generation: r.base.Generation(),
		Structural: structural,
	}
	defer func() { resp.WallNs = time.Since(start).Nanoseconds() }()
	switch {
	case applyErr != nil:
		// The applied prefix is committed and its frontier is drained, so
		// the snapshot can no longer be carried forward.
		if resp.Generation != genBefore {
			r.snap.drop()
		}
		return resp, applyErr
	case len(seeds) == 0:
		resp.Warm, resp.Converged = r.snap.ok, true
		return resp, nil
	case structural || !r.snap.ok || !features.RecommendDelta(r.md, len(seeds)):
		r.snap.drop()
		resp.Converged = true
		return resp, nil
	}

	// Start the re-convergence where a run from the mutated base would:
	// clamped and input-free nodes take the base's row (the delta layer
	// maintains them and the engine never recomputes them), every other
	// node keeps its fixpoint. Only the frontier, the rows a whole-array
	// publication left drifted, and the query clamps — one may restate a
	// node the base clamps — can differ; all are journalled, since the
	// frontier's base rows moved too.
	w := &r.snap
	restore := func(v int32) {
		if r.base.Observed[v] || r.base.InDegree(v) == 0 {
			copy(w.row(v, r.base.States), r.base.Belief(v))
		}
		w.rows = append(w.rows, v)
	}
	for _, v := range seeds {
		restore(v)
	}
	for _, v := range w.drift {
		restore(v)
	}
	for _, ev := range w.evidence {
		restore(ev.node)
	}
	w.drift = w.drift[:0]
	w.trim(r.base.NumNodes)

	o := r.leaseLocked(true)
	defer r.release(o)
	evidence := make([]evPair, 0, len(w.evidence))
	for _, ev := range w.evidence {
		if o.g.Observed[ev.node] {
			// The update clamped this node at base level; the newer clamp
			// wins over the snapshot's query-time evidence.
			continue
		}
		if err := o.observe(ev); err != nil {
			// The mutations are committed; only the re-convergence failed.
			// Report the full prefix and leave the next query to run cold.
			w.drop()
			return resp, fmt.Errorf("serve: re-clamp node %d: %w", ev.node, err)
		}
		evidence = append(evidence, ev)
	}
	res := bp.RunResidualFrom(o.g, s.cfg.Options, seeds)
	o.ran(res.Moved)
	resp.Converged = res.Converged
	resp.Updates = res.Ops.NodesProcessed
	if !res.Converged {
		w.drop()
		return resp, nil
	}
	resp.Warm = true
	if res.Moved == nil {
		// The run went untracked past NumNodes updates.
		r.storeLocked(func(dst []float32) { copy(dst, o.g.Beliefs) }, evidence)
		return resp, nil
	}
	// The overlay differs from the snapshot only in the clamps it
	// re-applied and the rows the run moved: exactly its dirty rows.
	r.patchLocked(o.g, o.dirty)
	w.evidence = evidence
	return resp, nil
}
