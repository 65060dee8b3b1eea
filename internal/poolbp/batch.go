package poolbp

import (
	"sync/atomic"

	"credo/internal/bp"
	"credo/internal/graph"
	"credo/internal/kernel"
	"credo/internal/telemetry"
)

// engBatch is the batched pool engine's name in telemetry events.
const engBatch = "pool.batch"

// RunBatch executes the K queries staged in bs over the shared structure
// g on the persistent pool — the parallel form of bp.RunBatch. Workers
// claim contiguous node shards of the *whole batch*: a shard carries its
// K-lane belief range into the next buffer, then recomputes every lane
// of its active nodes through the kernel layer's SoA batch path, so one
// random-order pass over adjacency and matrices per sweep services all K
// queries on all cores.
//
// Determinism mirrors RunNode: the shard count derives from the node
// count alone, each node (all its lanes) is owned by exactly one worker
// per sweep, updates are Jacobi against a double buffer, and per-shard
// per-lane deltas are reduced serially in shard order — so the final
// beliefs and every lane's stopping sweep are bitwise identical for any
// worker count, and each lane matches a solo RunNode of its query run
// with the same CheckEvery. Lane convergence is evaluated at the same
// batched check boundaries as RunNode (every CheckEvery sweeps); a lane
// that passes freezes — folds stop writing it — while its batch-mates
// continue. The work queue option is ignored, as in bp.RunBatch:
// per-lane frontiers would forfeit the SoA amortization.
func RunBatch(g *graph.Graph, bs *graph.BatchState, opts Options) bp.BatchResult {
	opts = opts.withDefaults()
	o := opts.Options
	kk, used := bs.K, bs.Used
	bp.EmitRunStart(o.Probe, engBatch, int64(g.NumNodes)*int64(used), o.Threshold)
	s := g.States
	gatherLines := int64((s*kk*4 + 63) / 64) // cache lines per K-wide parent gather
	matLines := int64(0)
	if !g.SharedMatrix() {
		matLines = int64((s*s*4 + 63) / 64)
	}

	shards := shardCount(g.NumNodes, opts.Shards)
	workers := opts.Workers

	// Double buffer over the batch state: cur is read, nxt written.
	cur := bs.Beliefs
	nxt := make([]float32, len(bs.Beliefs))
	curIsBeliefs := true

	shardLaneDelta := make([]float32, shards*kk)
	laneBuf := make([]float32, workers*kk)
	workerOps := make([]bp.OpCounts, workers)
	bk := kernel.NewBatch(g, o.Kernel, kk)
	bks := make([]kernel.BatchScratch, workers)

	active := make([]bool, kk)
	for l := 0; l < used; l++ {
		active[l] = true
	}
	lanes := make([]bp.LaneResult, used)
	laneNodes := make([]int64, used)
	laneEdges := make([]int64, used)
	for v := 0; v < g.NumNodes; v++ {
		deg := int64(g.InOffsets[v+1] - g.InOffsets[v])
		for l := 0; l < used; l++ {
			if !bs.Observed[v*kk+l] {
				laneNodes[l]++
				laneEdges[l] += deg
			}
		}
	}
	laneDelta := make([]float32, kk)
	live := used

	var res bp.BatchResult
	res.Lanes = lanes

	probe := o.Probe

	p := newPool(workers)
	defer p.close()
	rr := newRegionRunner(p, workers, probe != nil)
	var cursor atomic.Int64
	var lastNodes, lastEdges int64

	// Compute region: built once, reads cur/nxt through the enclosing
	// variables. The active mask is only mutated at check boundaries,
	// where every worker is parked at the pool barrier.
	computeBody := func(w int) {
		ops := &workerOps[w]
		sc := &bks[w]
		ld := laneBuf[w*kk : w*kk+kk]
		for {
			sh := int(cursor.Add(1)) - 1
			if sh >= shards {
				return
			}
			lo, hi := shardRange(sh, g.NumNodes, shards)
			copy(nxt[lo*s*kk:hi*s*kk], cur[lo*s*kk:hi*s*kk])
			ops.MemLoads += int64((hi - lo) * s * kk)
			ops.MemStores += int64((hi - lo) * s * kk)
			for l := range ld {
				ld[l] = 0
			}
			for v := int32(lo); v < int32(hi); v++ {
				deg, wrote := bk.NodeUpdateBatch(sc, nxt, v, cur, bs.Priors, bs.Observed, active)
				if wrote == 0 {
					continue
				}
				d64, w64 := int64(deg), int64(wrote)
				ops.NodesProcessed += w64
				ops.EdgesProcessed += d64 * w64
				ops.RandomLoads += d64 * (gatherLines + matLines)
				ops.MemLoads += d64*int64(s)*w64 + 2*int64(s)*w64
				ops.MatrixOps += d64 * int64(s*s) * w64
				ops.LogOps += (d64*int64(s) + int64(s)) * w64
				ops.MemStores += int64(s) * w64
				base := int(v) * s * kk
				for l := 0; l < used; l++ {
					if !active[l] || bs.Observed[int(v)*kk+l] {
						continue
					}
					var d float32
					for j := 0; j < s; j++ {
						x := nxt[base+j*kk+l] - cur[base+j*kk+l]
						if x < 0 {
							x = -x
						}
						d += x
					}
					ld[l] += d
				}
			}
			copy(shardLaneDelta[sh*kk:sh*kk+kk], ld)
		}
	}

	for sweep := 0; sweep < o.MaxIterations && live > 0; sweep++ {
		res.Iterations = sweep + 1
		res.Ops.Iterations++
		for i := range shardLaneDelta {
			shardLaneDelta[i] = 0
		}

		cursor.Store(0)
		rr.run(computeBody)
		res.Ops.SyncOps += int64(workers)
		bk.EndSweep()

		cur, nxt = nxt, cur
		curIsBeliefs = !curIsBeliefs
		for l := 0; l < used; l++ {
			if active[l] {
				lanes[l].Updates += laneNodes[l]
				lanes[l].Edges += laneEdges[l]
			}
		}

		if (sweep+1)%opts.CheckEvery == 0 || sweep+1 == o.MaxIterations {
			// Reduce per-shard per-lane deltas serially in shard order —
			// the same association a solo run's shard reduction uses.
			for l := 0; l < kk; l++ {
				laneDelta[l] = 0
			}
			for sh := 0; sh < shards; sh++ {
				row := shardLaneDelta[sh*kk : sh*kk+kk]
				for l := 0; l < used; l++ {
					laneDelta[l] += row[l]
				}
			}
			var sum float32
			for l := 0; l < used; l++ {
				if !active[l] {
					continue
				}
				sum += laneDelta[l]
				lanes[l].Iterations = sweep + 1
				lanes[l].FinalDelta = laneDelta[l]
				if laneDelta[l] < o.Threshold {
					lanes[l].Converged = true
					active[l] = false
					live--
				}
			}
			if probe != nil {
				var nodes, edges, fast, resc int64
				for w := range workerOps {
					nodes += workerOps[w].NodesProcessed
					edges += workerOps[w].EdgesProcessed
					fast += bks[w].Counters.FastPath
					resc += bks[w].Counters.Rescales
				}
				probe.Emit(telemetry.Event{
					Kind:     telemetry.KindIteration,
					Engine:   engBatch,
					Iter:     int32(sweep + 1),
					Delta:    sum,
					Updated:  nodes - lastNodes,
					Edges:    edges - lastEdges,
					Active:   int64(live),
					Items:    int64(used),
					FastPath: fast,
					Rescales: resc,
				})
				lastNodes, lastEdges = nodes, edges
			}
		}
	}

	if !curIsBeliefs {
		copy(bs.Beliefs, cur)
	}
	res.Converged = live == 0
	for _, ops := range workerOps {
		res.Ops.Add(ops)
	}
	for w := range bks {
		res.Ops.KernelFastPath += bks[w].Counters.FastPath
		res.Ops.RescaleOps += bks[w].Counters.Rescales
	}
	rr.emitWorkers(probe, engBatch)
	if probe != nil {
		var r bp.Result
		r.Iterations = res.Iterations
		r.Converged = res.Converged
		for l := 0; l < used; l++ {
			r.FinalDelta += lanes[l].FinalDelta
		}
		r.Ops = res.Ops
		bp.EmitRunEnd(probe, engBatch, &r)
	}
	return res
}
