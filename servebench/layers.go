package main

import (
	"fmt"

	"credo/internal/bp"
	"credo/internal/graph"
	"credo/internal/kernel"
	"credo/internal/mtxbp"
	"credo/internal/serve"
)

// Repetitions of the per-layer probes; each figure is their median.
const (
	sideQueries = 5
	layerReps   = 5
)

// layerFigures are the per-layer numbers that come from counts or from
// probes outside the replay's request loop.
type layerFigures struct {
	residualUpdates float64
	batchSweeps     float64
	soloNs          float64
	batchNs         float64
	seedsPerUpdate  float64
}

// measureLayers times the layers the replay does not reach as separate
// calls: the serving path the workload bypasses, a cold batch, one lease
// copy, one kernel sweep of each family, a batch restage and run, a
// residual run from a one-node frontier, and the delta merge. Each call
// records a span on tr.
func measureLayers(w workload, tr *tracer, st *replayStats, res *runResult) (*layerFigures, error) {
	lf := &layerFigures{}
	g := st.graph
	var bodies [][]byte
	for i := range res.Sched.Requests {
		if r := &res.Sched.Requests[i]; !r.Update && len(bodies) < sideQueries {
			bodies = append(bodies, r.Body)
		}
	}

	// The serving path the workload bypasses. The batched one runs with
	// a sweep cap on a graph the batcher never serves (README.md).
	if w.Engine == "" {
		lf.batchSweeps = median(st.sweeps)
		var upd []float64
		for _, b := range bodies {
			rq, err := st.resident.DecodeQuery(b)
			if err != nil {
				return nil, err
			}
			var resp *serve.Response
			tr.timed("serve.query_solo", -1, -1, func() { resp, err = st.server.QueryResident(st.resident, serve.EngineResidual, rq) })
			if err != nil {
				return nil, err
			}
			upd = append(upd, float64(resp.Updates))
		}
		lf.residualUpdates = median(upd)
		if err := coldBatches(tr, st.server, st.resident, bodies); err != nil {
			return nil, err
		}
	} else {
		lf.residualUpdates = median(st.updates)
		cfg := daemonConfig()
		cfg.Options.MaxIterations = w.BatchCap
		srv := serve.New(cfg)
		r, err := srv.Load("g", g)
		if err != nil {
			return nil, err
		}
		var sweeps []float64
		for _, b := range bodies {
			rq, err := r.DecodeQuery(b)
			if err != nil {
				return nil, err
			}
			var resps []*serve.Response
			tr.timed("serve.query_batch", -1, -1, func() { resps, err = srv.QueryBatched(r, []*serve.ResolvedQuery{rq}) })
			if err != nil {
				return nil, err
			}
			sweeps = append(sweeps, float64(resps[0].Iterations))
		}
		lf.batchSweeps = median(sweeps)
		if err := coldBatches(tr, srv, r, bodies); err != nil {
			return nil, err
		}
	}

	// One lease copy.
	c := g.Clone()
	for i := 0; i < layerReps; i++ {
		var err error
		tr.timed("graph.copy_state", -1, -1, func() { err = c.CopyStateFrom(g) })
		if err != nil {
			return nil, err
		}
	}

	// One full sweep of each kernel family.
	k := kernel.New(g, kernel.Config{})
	var ksc kernel.Scratch
	dst := make([]float32, g.States)
	kb := serve.DefaultBatchK
	bs, err := graph.NewBatchState(g, kb)
	if err != nil {
		return nil, err
	}
	bk := kernel.NewBatch(g, kernel.Config{}, kb)
	var bsc kernel.BatchScratch
	bdst := make([]float32, len(bs.Beliefs))
	active := make([]bool, kb)
	for i := range active {
		active[i] = true
	}
	for i := 0; i < layerReps; i++ {
		tr.timed("kernel.sweep", -1, -1, func() {
			for v := int32(0); v < int32(g.NumNodes); v++ {
				k.NodeUpdate(&ksc, dst, v, g.Beliefs)
			}
		})
		tr.timed("kernel.batch_sweep", -1, -1, func() {
			for v := int32(0); v < int32(g.NumNodes); v++ {
				bk.NodeUpdateBatch(&bsc, bdst, v, bs.Beliefs, bs.Priors, bs.Observed, active)
			}
		})
		tr.timed("graph.batch_reset", -1, -1, func() { bs.Reset(g) })
	}
	work := float64(g.NumEdges * g.States)
	lf.soloNs = 1e6 * median(tr.durations("kernel.sweep")) / work
	lf.batchNs = 1e6 * median(tr.durations("kernel.batch_sweep")) / (work * float64(kb))

	// Warm-started runs from a fixpoint: the oracle's, when the untraced
	// run produced one.
	fix := res.Oracle
	if fix == nil {
		fix = g
	}
	opts := daemonConfig().Options
	if w.BatchCap > 0 {
		opts.MaxIterations = w.BatchCap
	}
	free := freeNodes(fix, layerReps)
	fb, err := graph.NewBatchState(fix, kb)
	if err != nil {
		return nil, err
	}
	fc := fix.Clone()
	for _, v := range free {
		fb.Reset(fix)
		fb.Used = 1
		if err := fb.Observe(0, v, 0); err != nil {
			return nil, err
		}
		tr.timed("bp.batch", -1, -1, func() { bp.RunBatch(fix, fb, opts) })

		if err := fc.CopyStateFrom(fix); err != nil {
			return nil, err
		}
		if err := fc.Observe(v, 0); err != nil {
			return nil, err
		}
		seeds := []int32{v}
		for _, e := range fc.OutEdges[fc.OutOffsets[v]:fc.OutOffsets[v+1]] {
			seeds = append(seeds, fc.EdgeDst[e])
		}
		tr.timed("bp.residual_from", -1, -1, func() { bp.RunResidualFrom(fc, daemonConfig().Options, seeds) })
	}

	// The delta layer on a fresh copy: the schedule's updates replayed in
	// order for the seed count, then edge adds merged by TakeDeltaSeeds.
	dg, err := mtxbp.ReadParallel(res.Files.Nodes, res.Files.Edges, mtxbp.ReadOptions{})
	if err != nil {
		return nil, err
	}
	var seeds, nupd float64
	for i := range res.Sched.Requests {
		r := &res.Sched.Requests[i]
		if !r.Update {
			continue
		}
		for _, m := range r.Muts {
			if err := m.Apply(dg); err != nil {
				return nil, fmt.Errorf("delta replay of update %d: %w", i, err)
			}
		}
		seeds += float64(len(dg.TakeDeltaSeeds()))
		nupd++
	}
	if nupd > 0 {
		lf.seedsPerUpdate = seeds / nupd
	}
	ends := freeNodes(dg, 2*layerReps)
	for i := 0; i+1 < len(ends); i += 2 {
		u, v := ends[i], ends[i+1]
		var err error
		tr.timed("graph.merge", -1, -1, func() {
			if err = dg.AddEdgeDelta(u, v, nil); err == nil {
				if err = dg.AddEdgeDelta(v, u, nil); err == nil {
					dg.TakeDeltaSeeds()
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return lf, nil
}

// coldBatches times batched queries after dropping the warm snapshot,
// the path every query takes after a structural update.
func coldBatches(tr *tracer, srv *serve.Server, r *serve.Resident, bodies [][]byte) error {
	for _, b := range bodies {
		rq, err := r.DecodeQuery(b)
		if err != nil {
			return err
		}
		r.InvalidateWarm()
		tr.timed("bp.cold_batch", -1, -1, func() { _, err = srv.QueryBatched(r, []*serve.ResolvedQuery{rq}) })
		if err != nil {
			return err
		}
	}
	return nil
}

// freeNodes returns up to n unclamped nodes with inputs, spread over the
// node range deterministically.
func freeNodes(g *graph.Graph, n int) []int32 {
	var out []int32
	step := g.NumNodes/(4*n) + 1
	for v := int32(0); int(v) < g.NumNodes && len(out) < n; v += int32(step) {
		if !g.Observed[v] && g.InDegree(v) > 0 {
			out = append(out, v)
		}
	}
	return out
}
