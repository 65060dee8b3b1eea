package main

import (
	"encoding/json"
	"fmt"
	"math"

	"credo/internal/bp"
	"credo/internal/enginetest"
	"credo/internal/gen"
	"credo/internal/graph"
	"credo/internal/mtxbp"
)

// Checks on answers. normTol bounds how far a belief's mass may stray
// from 1 (and a clamped node's mass from its state); oracleTol is the
// enginetest per-node L1 tolerance the final answer must meet against
// the harness's own cold run.
const (
	normTol   = 1e-3
	oracleTol = enginetest.DefaultTol
)

// queryResponse is the part of serve.Response the checks read.
type queryResponse struct {
	Engine     string               `json:"engine"`
	Warm       bool                 `json:"warm"`
	Converged  bool                 `json:"converged"`
	Iterations int                  `json:"iterations"`
	Updates    int64                `json:"updates"`
	Beliefs    map[string][]float32 `json:"beliefs"`
}

// updateResponse is the part of serve.UpdateResponse the checks read.
type updateResponse struct {
	Applied int    `json:"applied"`
	Error   string `json:"error"`
}

// checkQuery verifies one query answer: every requested node is present
// (every node when the query named none), every belief is a finite
// distribution, and every evidence node in the answer is clamped. It
// reports whether the answer re-converged from a warm snapshot.
func checkQuery(body []byte, r *request, numNodes, states int) (warm bool, err error) {
	var resp queryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return false, fmt.Errorf("decode answer: %w", err)
	}
	if r.Nodes == nil {
		if len(resp.Beliefs) != numNodes {
			return false, fmt.Errorf("export answered %d of %d nodes", len(resp.Beliefs), numNodes)
		}
	} else {
		for _, v := range r.Nodes {
			if _, ok := resp.Beliefs[nodeRef(v)]; !ok {
				return false, fmt.Errorf("requested node %d missing", v)
			}
		}
	}
	for name, b := range resp.Beliefs {
		if err := checkDistribution(b, states); err != nil {
			return false, fmt.Errorf("node %s: %w", name, err)
		}
	}
	for _, c := range r.Evidence {
		if b, ok := resp.Beliefs[nodeRef(c.Node)]; ok && b[c.State] < 1-normTol {
			return false, fmt.Errorf("evidence node %d not clamped to state %d: %v", c.Node, c.State, b)
		}
	}
	return resp.Warm, nil
}

func checkDistribution(b []float32, states int) error {
	if len(b) != states {
		return fmt.Errorf("belief has %d states, want %d", len(b), states)
	}
	var sum float64
	for _, p := range b {
		if math.IsNaN(float64(p)) || math.IsInf(float64(p), 0) || p < 0 {
			return fmt.Errorf("belief %v is not a distribution", b)
		}
		sum += float64(p)
	}
	if math.Abs(sum-1) > normTol {
		return fmt.Errorf("belief %v sums to %g", b, sum)
	}
	return nil
}

// checkUpdate verifies that every operation of an update landed.
func checkUpdate(body []byte, r *request) error {
	var resp updateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode update answer: %w", err)
	}
	if resp.Error != "" || resp.Applied != len(r.Muts) {
		return fmt.Errorf("update applied %d of %d operations: %s", resp.Applied, len(r.Muts), resp.Error)
	}
	return nil
}

// checkProbe verifies that the read-your-write probe shows the update's
// evidence arrival clamped.
func checkProbe(body []byte, r *request, states int) error {
	var resp queryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode probe answer: %w", err)
	}
	b, ok := resp.Beliefs[nodeRef(r.Arrival.Node)]
	if !ok {
		return fmt.Errorf("probe answer lacks node %d", r.Arrival.Node)
	}
	if err := checkDistribution(b, states); err != nil {
		return err
	}
	if b[r.Arrival.State] < 1-normTol {
		return fmt.Errorf("probe does not show node %d clamped to state %d: %v", r.Arrival.Node, r.Arrival.State, b)
	}
	return nil
}

// oracleGraph rebuilds what the daemon should hold: the same files, the
// acknowledged updates replayed in order, the base watchlist clamped,
// then a cold run to its fixpoint by the engine family the workload's
// queries use — the batched Jacobi engine (one lane) or the residual
// one. These MRFs have more than one BP fixpoint, and the two schedules
// can settle in different ones from the same cold start.
func oracleGraph(f graphFiles, acked [][]gen.Mutation, base []clamp, batched bool) (*graph.Graph, bp.Result, error) {
	g, err := mtxbp.ReadParallel(f.Nodes, f.Edges, mtxbp.ReadOptions{})
	if err != nil {
		return nil, bp.Result{}, err
	}
	for i, muts := range acked {
		for _, m := range muts {
			if err := m.Apply(g); err != nil {
				return nil, bp.Result{}, fmt.Errorf("oracle replay of update %d: %w", i, err)
			}
		}
	}
	g.MergeDelta()
	for _, c := range base {
		if err := g.Observe(c.Node, c.State); err != nil {
			return nil, bp.Result{}, err
		}
	}
	opts := daemonConfig().Options
	if !batched {
		return g, bp.RunResidual(g, opts), nil
	}
	bs, err := graph.NewBatchState(g, 1)
	if err != nil {
		return nil, bp.Result{}, err
	}
	br := bp.RunBatch(g, bs, opts)
	bs.ExtractLane(0, g.Beliefs)
	return g, bp.Result{Iterations: br.Iterations, Converged: br.Converged}, nil
}

// checkOracle compares the final answer node by node with the oracle.
func checkOracle(body []byte, oracle *graph.Graph) (worst float32, err error) {
	var resp queryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("decode final answer: %w", err)
	}
	if len(resp.Beliefs) != oracle.NumNodes {
		return 0, fmt.Errorf("final answer has %d of %d nodes", len(resp.Beliefs), oracle.NumNodes)
	}
	bad := 0
	for v := int32(0); v < int32(oracle.NumNodes); v++ {
		b, ok := resp.Beliefs[nodeRef(v)]
		if !ok || len(b) != oracle.States {
			return 0, fmt.Errorf("final answer lacks node %d", v)
		}
		d := graph.L1Diff(b, oracle.Belief(v))
		if d > worst {
			worst = d
		}
		if d > oracleTol {
			bad++
		}
	}
	if bad > 0 {
		return worst, fmt.Errorf("final answer differs from the cold oracle on %d nodes (worst L1 %g, tolerance %g)", bad, worst, oracleTol)
	}
	return worst, nil
}
