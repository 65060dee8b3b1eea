package bp

import (
	"sync"

	"credo/internal/graph"
	"credo/internal/kernel"
	"credo/internal/telemetry"
)

// engBatch is the batched node engine's name in telemetry events.
const engBatch = "bp.batch"

// LaneResult is the per-query outcome of one lane of a batched run — the
// fields of Result that are meaningful per lane.
type LaneResult struct {
	// Iterations is the sweep at which this lane stopped: its own
	// convergence sweep, or the cap.
	Iterations int
	// Converged reports whether the lane's delta fell below the
	// threshold before the iteration cap.
	Converged bool
	// FinalDelta is the lane's global L1 belief delta at its last
	// processed sweep.
	FinalDelta float32
	// Updates counts the lane's belief recombinations — what a solo run
	// of the lane's query would have reported as Ops.NodesProcessed.
	Updates int64
	// Edges counts the lane's edge-message computations — the solo run's
	// Ops.EdgesProcessed.
	Edges int64
}

// BatchResult reports the outcome of a K-way batched run.
type BatchResult struct {
	// Lanes holds one entry per staged lane (length BatchState.Used).
	Lanes []LaneResult
	// Iterations is the number of sweeps executed — the slowest lane's
	// iteration count.
	Iterations int
	// Converged reports whether every lane converged.
	Converged bool
	// Ops are the abstract operation counts of the whole batch. Per-lane
	// algorithmic work (NodesProcessed, EdgesProcessed, MatrixOps, ...)
	// is counted once per lane, exactly as K solo runs would; the
	// random-order structure traffic (RandomLoads) is counted once per
	// sweep — that difference is the amortization the batch buys.
	Ops OpCounts
}

// batchScratch is the pooled per-run state of RunBatch.
type batchScratch struct {
	prev      []float32 // previous sweep's beliefs, SoA, NumNodes*States*K
	laneDelta []float32 // per-lane delta of the current sweep
	laneFinal []float32 // per-lane delta of the lane's last active sweep
	laneNodes []int64   // per-lane unclamped-node counts
	laneEdges []int64   // per-lane in-edge counts over unclamped nodes
	active    []bool    // per-lane liveness
	bks       kernel.BatchScratch
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func getBatchScratch() *batchScratch { return batchScratchPool.Get().(*batchScratch) }

func (sc *batchScratch) release() {
	sc.bks.Counters = kernel.Counters{}
	batchScratchPool.Put(sc)
}

// RunBatch executes loopy BP for the K queries staged in bs over the
// shared structure g — the node paradigm, K lanes at a time. Every sweep
// walks the adjacency once; each node combine folds each in-edge's
// transposed joint matrix into all K lanes through the kernel layer's
// SoA batch path, so the structure traffic that makes the node paradigm
// memory-bound is paid once per sweep instead of once per query.
//
// Sweeps are full Jacobi passes: every unfrozen lane of every unclamped
// node reads the previous sweep's beliefs. The work queue option is
// ignored — per-lane frontiers would make the lanes walk different node
// sets and forfeit the SoA amortization. Each lane carries its own
// convergence state: a lane whose delta falls below the threshold is
// frozen (its beliefs stop changing, folds skip its writes) while the
// remaining lanes continue, so every lane reproduces its standalone
// K=1 run bitwise regardless of how long its batch-mates take — under
// every variant, since each lane's circular correction state follows
// RunNode's sweep discipline. Lanes beyond bs.Used are never touched.
func RunBatch(g *graph.Graph, bs *graph.BatchState, opts Options) BatchResult {
	return RunBatchInto(g, bs, opts, make([]LaneResult, bs.Used))
}

// RunBatchInto is RunBatch writing lane outcomes into caller-provided
// storage (len(lanes) >= bs.Used) — the allocation-free form for serving
// loops that pool their result slices.
func RunBatchInto(g *graph.Graph, bs *graph.BatchState, opts Options, lanes []LaneResult) BatchResult {
	sc := getBatchScratch()
	res := runBatch(g, bs, opts, sc, lanes)
	sc.release()
	return res
}

func runBatch(g *graph.Graph, bs *graph.BatchState, opts Options, sc *batchScratch, lanes []LaneResult) BatchResult {
	opts = opts.withDefaults(g.NumNodes)
	defer opts.Trace.Span(engBatch).End()
	s := g.States
	kk := bs.K
	used := bs.Used
	gatherLines := int64((s*kk*4 + 63) / 64) // cache lines per K-wide parent gather
	matLines := int64(0)
	if !g.SharedMatrix() {
		matLines = int64((s*s*4 + 63) / 64)
	}
	bk := kernel.NewBatch(g, opts.Kernel, kk)

	sc.prev = growF32(sc.prev, len(bs.Beliefs))
	prev := sc.prev
	sc.laneDelta = growF32(sc.laneDelta, kk)
	sc.laneFinal = growF32(sc.laneFinal, kk)
	sc.active = growBool(sc.active, kk)
	laneDelta, laneFinal, active := sc.laneDelta, sc.laneFinal, sc.active
	for l := 0; l < kk; l++ {
		active[l] = l < used
		laneFinal[l] = 0
	}
	lanes = lanes[:used]
	for l := range lanes {
		lanes[l] = LaneResult{}
	}

	// Per-lane unclamped-node and in-edge counts: a lane's solo run would
	// process exactly this many nodes (and fold this many edges) per sweep.
	sc.laneNodes = growI64(sc.laneNodes, kk)
	sc.laneEdges = growI64(sc.laneEdges, kk)
	laneNodes, laneEdges := sc.laneNodes, sc.laneEdges
	for l := 0; l < kk; l++ {
		laneNodes[l] = 0
		laneEdges[l] = 0
	}
	for v := 0; v < g.NumNodes; v++ {
		deg := int64(g.InOffsets[v+1] - g.InOffsets[v])
		for l := 0; l < used; l++ {
			if !bs.Observed[v*kk+l] {
				laneNodes[l]++
				laneEdges[l] += deg
			}
		}
	}

	var res BatchResult
	res.Lanes = lanes
	live := used

	probe := opts.Probe
	ctx, endTask := telemetry.BeginRun(engBatch)
	emitRunStart(probe, engBatch, int64(g.NumNodes)*int64(used), opts.Threshold)
	var lastNodes, lastEdges int64

	for iter := 0; iter < opts.MaxIterations && live > 0; iter++ {
		res.Iterations = iter + 1
		res.Ops.Iterations++
		endIter := telemetry.StartRegion(ctx, "iteration")
		copy(prev, bs.Beliefs)
		for l := 0; l < kk; l++ {
			laneDelta[l] = 0
		}

		for v := int32(0); v < int32(g.NumNodes); v++ {
			deg, wrote := bk.NodeUpdateBatch(&sc.bks, bs.Beliefs, v, prev, bs.Priors, bs.Observed, active)
			if wrote == 0 {
				continue
			}
			d64, w64 := int64(deg), int64(wrote)
			res.Ops.NodesProcessed += w64
			res.Ops.EdgesProcessed += d64 * w64
			res.Ops.RandomLoads += d64 * (gatherLines + matLines) // once: the amortized structure pass
			res.Ops.MemLoads += d64*int64(s)*w64 + 2*int64(s)*w64
			res.Ops.MatrixOps += d64 * int64(s*s) * w64
			res.Ops.LogOps += (d64*int64(s) + int64(s)) * w64
			res.Ops.MemStores += int64(s) * w64

			// Per-lane L1 change, accumulated node-by-node in the same
			// order a solo run's global sum grows (graph.L1Diff per node,
			// states ascending), so lane convergence decisions match the
			// standalone run bit-for-bit.
			base := int(v) * s * kk
			for l := 0; l < used; l++ {
				if !active[l] || bs.Observed[int(v)*kk+l] {
					continue
				}
				var d float32
				for j := 0; j < s; j++ {
					x := bs.Beliefs[base+j*kk+l] - prev[base+j*kk+l]
					if x < 0 {
						x = -x
					}
					d += x
				}
				laneDelta[l] += d
			}
		}
		bk.EndSweep()

		var sum float32
		for l := 0; l < used; l++ {
			if !active[l] {
				continue
			}
			sum += laneDelta[l]
			laneFinal[l] = laneDelta[l]
			lanes[l].Iterations = iter + 1
			lanes[l].FinalDelta = laneDelta[l]
			lanes[l].Updates += laneNodes[l]
			lanes[l].Edges += laneEdges[l]
			if laneDelta[l] < opts.Threshold {
				lanes[l].Converged = true
				active[l] = false
				live--
			}
		}
		endIter()
		if probe != nil {
			probe.Emit(telemetry.Event{
				Kind:     telemetry.KindIteration,
				Engine:   engBatch,
				Iter:     int32(iter + 1),
				Delta:    sum,
				Updated:  res.Ops.NodesProcessed - lastNodes,
				Edges:    res.Ops.EdgesProcessed - lastEdges,
				Active:   int64(live),
				Items:    int64(used),
				FastPath: sc.bks.Counters.FastPath,
				Rescales: sc.bks.Counters.Rescales,
			})
			lastNodes, lastEdges = res.Ops.NodesProcessed, res.Ops.EdgesProcessed
		}
	}

	res.Converged = live == 0
	res.Ops.KernelFastPath += sc.bks.Counters.FastPath
	res.Ops.RescaleOps += sc.bks.Counters.Rescales
	if probe != nil {
		var r Result
		r.Iterations = res.Iterations
		r.Converged = res.Converged
		for l := 0; l < used; l++ {
			r.FinalDelta += laneFinal[l]
		}
		r.Ops = res.Ops
		emitRunEnd(probe, engBatch, &r)
	}
	endTask()
	return res
}
