// Package cudabp implements the paper's CUDA Node and CUDA Edge loopy-BP
// engines (§3.6) on the simulated device of package gpusim, plus the
// OpenACC-style variant of §2.4 whose scheduler behaviours the paper
// measured as uncompetitive.
//
// Each engine mirrors its C counterpart exactly in arithmetic (Jacobi
// updates, log-space accumulation, the same combine stage), so beliefs
// agree with the sequential engines within floating-point tolerance. The
// CUDA-specific behaviours are what differ:
//
//   - the whole graph is uploaded once and stays resident, with the
//     convergence scalar transferred back only every Batch iterations;
//   - the shared joint probability matrix lives in constant memory;
//   - the reductive convergence sum uses per-block shared memory;
//   - the edge paradigm folds messages into destination accumulators with
//     global atomics, while the node paradigm performs uncoalesced parent
//     gathers instead.
package cudabp

import (
	"fmt"
	"time"

	"credo/internal/bp"
	"credo/internal/gpusim"
	"credo/internal/graph"
	"credo/internal/kernel"
	"credo/internal/telemetry"
)

// DefaultBlockDim is the paper's block size for all benchmarks (§4).
const DefaultBlockDim = 1024

// DefaultBatch is the number of iterations between convergence-check
// transfers (§3.6 "minimize CPU-GPU transfers utilizing batching").
const DefaultBatch = 4

// Options configures a device run.
type Options struct {
	bp.Options
	// BlockDim is threads per block. Zero means DefaultBlockDim.
	BlockDim int
	// Batch is the number of iterations between host convergence checks.
	// Zero means DefaultBatch.
	Batch int
	// FuseKernels launches each iteration's pipeline (messages, combine,
	// reduce) as one fused kernel with grid-wide barriers — Gunrock's
	// kernel-fusion optimization (paper §5.2). It trades launch overhead
	// for barrier cost, paying off on small graphs where launches
	// dominate.
	FuseKernels bool
}

func (o Options) withDefaults(numNodes int) Options {
	if o.BlockDim <= 0 {
		o.BlockDim = DefaultBlockDim
	}
	if o.Batch <= 0 {
		o.Batch = DefaultBatch
	}
	if o.Threshold == 0 {
		o.Threshold = bp.DefaultThreshold
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = bp.DefaultMaxIterations
	}
	if o.QueueThreshold == 0 {
		o.QueueThreshold = o.Threshold
	}
	o.Options = o.Options.ResolveVariant()
	return o
}

// Result extends the CPU result with the device's simulated time and
// activity breakdown.
type Result struct {
	bp.Result
	// SimTime is the simulated device-side elapsed time, including the
	// initialization, transfer and kernel costs.
	SimTime time.Duration
	// DeviceStats is the device activity accumulated by this run.
	DeviceStats gpusim.Stats
}

// footprint returns the device bytes a run needs: the graph plus the
// engine's accumulators, deltas and queues.
func footprint(g *graph.Graph, edges bool) int64 {
	f := g.MemoryFootprint()
	f += int64(g.NumNodes*g.States) * 4 // accumulators
	f += int64(g.NumNodes) * 4          // node deltas
	if edges {
		f += int64(g.NumEdges) * 4 // edge deltas
		f += int64(g.NumEdges) * 8 // edge queue double buffer
	} else {
		f += int64(g.NumNodes) * 8 // node queue double buffer
	}
	return f
}

// RunEdge executes CUDA Edge loopy BP on dev. It returns an error when the
// graph does not fit in the device's VRAM (the paper's TW/OR exclusion).
func RunEdge(g *graph.Graph, dev *gpusim.Device, opts Options) (Result, error) {
	opts = opts.withDefaults(g.NumNodes)
	s := g.States
	bytes := footprint(g, true)
	if err := dev.Malloc(bytes); err != nil {
		return Result{}, fmt.Errorf("cudabp: edge: %w", err)
	}
	defer dev.Free(bytes)
	dev.CopyToDevice(g.MemoryFootprint())

	k := kernel.New(g, opts.Kernel)
	var res Result
	cur := append([]float32(nil), g.Beliefs...)
	nxt := append([]float32(nil), g.Beliefs...)

	// Log-domain accumulators as raw bits for device atomics.
	accBits := make([]uint32, g.NumNodes*s)
	for e := 0; e < g.NumEdges; e++ {
		dst := int(g.EdgeDst[e])
		m := g.Message(int32(e))
		for j := 0; j < s; j++ {
			f := f32(accBits[dst*s+j]) + bp.Logf(m[j])
			accBits[dst*s+j] = bits32(f)
		}
	}

	nodeDelta := make([]float32, g.NumNodes)

	active := make([]int32, g.NumEdges)
	for e := range active {
		active[e] = int32(e)
	}
	if opts.WorkQueue {
		res.Ops.QueuePushes += int64(g.NumEdges)
	}

	shared := g.SharedMatrix()
	matBytes := int64(s*s) * 4

	probe := opts.Probe
	ctx, endTask := telemetry.BeginRun(engEdge)
	emitRunStart(probe, engEdge, int64(g.NumEdges), opts.Threshold)

	for iter := 0; iter < opts.MaxIterations; iter++ {
		res.Iterations = iter + 1
		res.Ops.Iterations++
		endIter := telemetry.StartRegion(ctx, "iteration")

		n := len(active)
		grid := (n + opts.BlockDim - 1) / opts.BlockDim
		edgeBody := func(blk *gpusim.Block) {
			lo := blk.Index * opts.BlockDim
			hi := lo + opts.BlockDim
			if hi > n {
				hi = n
			}
			msg := make([]float32, s)
			var ks kernel.Scratch
			for _, e := range active[lo:hi] {
				src, dst := g.EdgeSrc[e], g.EdgeDst[e]
				parent := cur[int(src)*s : int(src)*s+s]
				k.Message(&ks, msg, e, parent)
				old := g.Message(e)
				base := int(dst) * s
				for j := 0; j < s; j++ {
					blk.AtomicAddFloat32(accBits, base+j, bp.Logf(msg[j])-bp.Logf(old[j]))
					old[j] = msg[j]
				}
				blk.ChargeRandomGlobal(int64(s) * 4) // source belief gather
				if shared {
					blk.ChargeConstant(matBytes)
				} else {
					mb := matBytes
					if mb < 64 {
						mb = 64 // one sector minimum per scattered matrix
					}
					blk.ChargeGlobal(mb)
				}
				blk.ChargeGlobal(int64(2*s) * 4) // message read+write
				blk.ChargeOps(int64(s*s + 3*s))
				blk.ChargeSpecialOps(int64(2 * s))
			}
		}

		var sum float32
		if opts.FuseKernels {
			cgrid, cbody := combineKernel(g, opts, cur, nxt, accBits, nodeDelta)
			rgrid, partial, rbody := reduceKernel(g, opts, nodeDelta)
			dev.LaunchFused("bp_iteration", []gpusim.FusedStage{
				{Grid: grid, BlockDim: opts.BlockDim, ThreadStateBytes: 4 * s, Kernel: edgeBody},
				{Grid: cgrid, BlockDim: opts.BlockDim, Kernel: cbody},
				{Grid: rgrid, BlockDim: opts.BlockDim, Kernel: rbody},
			})
			for _, p := range partial {
				sum += p
			}
		} else {
			dev.Launch(gpusim.LaunchConfig{Name: "edge_messages", Grid: grid, BlockDim: opts.BlockDim, ThreadStateBytes: 4 * s}, edgeBody)
			launchCombine(g, dev, opts, cur, nxt, accBits, nodeDelta)
			sum = launchReduce(g, dev, opts, nodeDelta)
		}
		res.Ops.EdgesProcessed += int64(n)
		res.Ops.AtomicOps += int64(n * s)
		res.Ops.MatrixOps += int64(n * s * s)
		res.Ops.NodesProcessed += int64(g.NumNodes)
		res.FinalDelta = sum

		if opts.WorkQueue {
			active = rebuildEdgeFrontier(g, dev, opts, nodeDelta)
			res.Ops.QueuePushes += int64(len(active))
		}

		cur, nxt = nxt, cur

		endIter()
		if probe != nil {
			qlen := int64(-1)
			if opts.WorkQueue {
				qlen = int64(len(active))
			}
			probe.Emit(telemetry.Event{
				Kind:    telemetry.KindIteration,
				Engine:  engEdge,
				Iter:    int32(iter + 1),
				Delta:   sum,
				Updated: int64(g.NumNodes),
				Edges:   int64(n),
				Active:  qlen,
				Items:   int64(g.NumEdges),
			})
		}

		// The convergence scalar only crosses the bus at batch
		// boundaries, so the device can overrun by up to Batch-1
		// iterations past true convergence.
		if (iter+1)%opts.Batch == 0 || iter+1 == opts.MaxIterations {
			dev.CopyToHost(4)
			if sum < opts.Threshold || (opts.WorkQueue && len(active) == 0) {
				res.Converged = true
				break
			}
		}
	}

	copy(g.Beliefs, cur)
	dev.CopyToHost(int64(len(g.Beliefs)) * 4)
	res.SimTime = dev.SimTime()
	res.DeviceStats = dev.Stats()
	emitRunEnd(probe, engEdge, &res.Result)
	endTask()
	return res, nil
}

// RunNode executes CUDA Node loopy BP on dev. Blocks run concurrently, but
// every node reads the previous launch's state — beliefs from the cur
// buffer and Circular BP's correction messages through kernel.NewSweep —
// so the result does not depend on block order.
func RunNode(g *graph.Graph, dev *gpusim.Device, opts Options) (Result, error) {
	opts = opts.withDefaults(g.NumNodes)
	s := g.States
	bytes := footprint(g, false)
	if err := dev.Malloc(bytes); err != nil {
		return Result{}, fmt.Errorf("cudabp: node: %w", err)
	}
	defer dev.Free(bytes)
	dev.CopyToDevice(g.MemoryFootprint())

	k := kernel.NewSweep(g, opts.Kernel)
	var res Result
	cur := append([]float32(nil), g.Beliefs...)
	nxt := append([]float32(nil), g.Beliefs...)
	nodeDelta := make([]float32, g.NumNodes)

	active := make([]int32, g.NumNodes)
	for v := range active {
		active[v] = int32(v)
	}
	if opts.WorkQueue {
		res.Ops.QueuePushes += int64(g.NumNodes)
	}

	shared := g.SharedMatrix()
	matBytes := int64(s*s) * 4

	probe := opts.Probe
	ctx, endTask := telemetry.BeginRun(engNode)
	emitRunStart(probe, engNode, int64(g.NumNodes), opts.Threshold)

	for iter := 0; iter < opts.MaxIterations; iter++ {
		res.Iterations = iter + 1
		res.Ops.Iterations++
		endIter := telemetry.StartRegion(ctx, "iteration")

		n := len(active)
		if opts.WorkQueue && n < g.NumNodes {
			// Nodes outside the queue keep their previous beliefs and
			// contribute no delta (device-side this is simply no write).
			copy(nxt, cur)
			for v := range nodeDelta {
				nodeDelta[v] = 0
			}
		}
		grid := (n + opts.BlockDim - 1) / opts.BlockDim
		var edgesThisIter int64
		nodeBody := func(blk *gpusim.Block) {
			lo := blk.Index * opts.BlockDim
			hi := lo + opts.BlockDim
			if hi > n {
				hi = n
			}
			// Per-block kernel scratch: blocks may execute concurrently,
			// so each block body owns its state.
			var ks kernel.Scratch
			for _, v := range active[lo:hi] {
				if g.Observed[v] {
					copy(nxt[int(v)*s:int(v)*s+s], cur[int(v)*s:int(v)*s+s])
					nodeDelta[v] = 0
					continue
				}
				elo, ehi := g.InOffsets[v], g.InOffsets[v+1]
				k.Begin(&ks, g.Priors[int(v)*s:int(v)*s+s], int(ehi-elo))
				for _, e := range g.InEdges[elo:ehi] {
					src := g.EdgeSrc[e]
					k.Accumulate(&ks, e, cur[int(src)*s:int(src)*s+s])
					blk.ChargeRandomGlobal(int64(s) * 4) // random parent gather
					if shared {
						blk.ChargeConstant(matBytes)
					} else {
						// Per-edge matrices are fetched from scattered
						// addresses; each row costs a full memory sector.
						blk.ChargeRandomGlobal(int64(s) * 64)
					}
					blk.ChargeOps(int64(s*s + 2*s))
					blk.ChargeSpecialOps(int64(s))
				}
				nb := nxt[int(v)*s : int(v)*s+s]
				ob := cur[int(v)*s : int(v)*s+s]
				k.Finish(&ks, nb)
				bp.Blend(nb, ob, opts.Damping)
				nodeDelta[v] = graph.L1Diff(nb, ob)
				blk.ChargeGlobal(int64(3*s) * 4) // prior load + belief write + old belief
				blk.ChargeSpecialOps(int64(s))
				blk.ChargeOps(int64(3 * s))
			}
		}

		var sum float32
		if opts.FuseKernels {
			rgrid, partial, rbody := reduceKernel(g, opts, nodeDelta)
			dev.LaunchFused("bp_iteration", []gpusim.FusedStage{
				{Grid: grid, BlockDim: opts.BlockDim, ThreadStateBytes: 8 * s, Kernel: nodeBody},
				{Grid: rgrid, BlockDim: opts.BlockDim, Kernel: rbody},
			})
			for _, p := range partial {
				sum += p
			}
		} else {
			dev.Launch(gpusim.LaunchConfig{Name: "node_update", Grid: grid, BlockDim: opts.BlockDim, ThreadStateBytes: 8 * s}, nodeBody)
			sum = launchReduce(g, dev, opts, nodeDelta)
		}
		k.EndSweep()
		for _, v := range active {
			edgesThisIter += int64(g.InDegree(v))
		}
		res.Ops.EdgesProcessed += edgesThisIter
		res.Ops.RandomLoads += edgesThisIter * int64(s)
		res.Ops.MatrixOps += edgesThisIter * int64(s*s)
		res.Ops.NodesProcessed += int64(n)
		res.FinalDelta = sum

		if opts.WorkQueue {
			active = rebuildNodeFrontier(g, dev, opts, nodeDelta)
			res.Ops.QueuePushes += int64(len(active))
		}

		cur, nxt = nxt, cur

		endIter()
		if probe != nil {
			qlen := int64(-1)
			if opts.WorkQueue {
				qlen = int64(len(active))
			}
			probe.Emit(telemetry.Event{
				Kind:    telemetry.KindIteration,
				Engine:  engNode,
				Iter:    int32(iter + 1),
				Delta:   sum,
				Updated: int64(n),
				Edges:   edgesThisIter,
				Active:  qlen,
				Items:   int64(g.NumNodes),
			})
		}

		if (iter+1)%opts.Batch == 0 || iter+1 == opts.MaxIterations {
			dev.CopyToHost(4)
			if sum < opts.Threshold || (opts.WorkQueue && len(active) == 0) {
				res.Converged = true
				break
			}
		}
	}

	copy(g.Beliefs, cur)
	dev.CopyToHost(int64(len(g.Beliefs)) * 4)
	res.SimTime = dev.SimTime()
	res.DeviceStats = dev.Stats()
	emitRunEnd(probe, engNode, &res.Result)
	endTask()
	return res, nil
}

// launchCombine runs the edge paradigm's combine kernel: every node folds
// its accumulator with its prior into the next belief buffer.
func launchCombine(g *graph.Graph, dev *gpusim.Device, opts Options, cur, nxt []float32, accBits []uint32, nodeDelta []float32) {
	grid, body := combineKernel(g, opts, cur, nxt, accBits, nodeDelta)
	dev.Launch(gpusim.LaunchConfig{Name: "node_combine", Grid: grid, BlockDim: opts.BlockDim}, body)
}

// combineKernel builds the combine stage's grid shape and body.
func combineKernel(g *graph.Graph, opts Options, cur, nxt []float32, accBits []uint32, nodeDelta []float32) (int, func(*gpusim.Block)) {
	s := g.States
	grid := (g.NumNodes + opts.BlockDim - 1) / opts.BlockDim
	return grid, func(blk *gpusim.Block) {
		lo := blk.Index * opts.BlockDim
		hi := lo + opts.BlockDim
		if hi > g.NumNodes {
			hi = g.NumNodes
		}
		acc := make([]float32, s)
		for v := lo; v < hi; v++ {
			if g.Observed[v] {
				copy(nxt[v*s:v*s+s], cur[v*s:v*s+s])
				nodeDelta[v] = 0
				continue
			}
			for j := 0; j < s; j++ {
				acc[j] = f32(accBits[v*s+j])
			}
			nb := nxt[v*s : v*s+s]
			ob := cur[v*s : v*s+s]
			bp.ExpNormalize(nb, g.Priors[v*s:v*s+s], acc)
			bp.Blend(nb, ob, opts.Damping)
			nodeDelta[v] = graph.L1Diff(nb, ob)
			blk.ChargeGlobal(int64(4*s) * 4)
			blk.ChargeSpecialOps(int64(s))
			blk.ChargeOps(int64(3 * s))
		}
	}
}

// launchReduce runs the reductive convergence sum, which uses per-block
// shared memory and __syncthreads (§3.6), and returns the total.
func launchReduce(g *graph.Graph, dev *gpusim.Device, opts Options, nodeDelta []float32) float32 {
	grid, partial, body := reduceKernel(g, opts, nodeDelta)
	dev.Launch(gpusim.LaunchConfig{Name: "reduce_delta", Grid: grid, BlockDim: opts.BlockDim}, body)
	var sum float32
	for _, p := range partial {
		sum += p
	}
	return sum
}

// reduceKernel builds the reduce stage's grid, partial buffer and body.
func reduceKernel(g *graph.Graph, opts Options, nodeDelta []float32) (int, []float32, func(*gpusim.Block)) {
	grid := (g.NumNodes + opts.BlockDim - 1) / opts.BlockDim
	partial := make([]float32, grid)
	return grid, partial, func(blk *gpusim.Block) {
		lo := blk.Index * opts.BlockDim
		hi := lo + opts.BlockDim
		if hi > g.NumNodes {
			hi = g.NumNodes
		}
		var sum float32
		for v := lo; v < hi; v++ {
			sum += nodeDelta[v]
		}
		partial[blk.Index] = sum
		blk.ChargeGlobal(int64(hi-lo) * 4)
		blk.ChargeOps(int64(hi - lo))
		// Tree reduction in shared memory: log2(blockDim) barriers.
		for w := opts.BlockDim; w > 1; w >>= 1 {
			blk.SyncThreads()
		}
	}
}

// rebuildEdgeFrontier runs the queue-rebuild kernel of the edge paradigm
// (§3.5): the next queue holds the out-edges of every node whose belief
// moved beyond the threshold this iteration (their messages are now
// stale). Pushes are aggregated per block — survivors are collected into
// block-local (shared) memory and a single atomic reserves the block's
// slice of the next queue.
func rebuildEdgeFrontier(g *graph.Graph, dev *gpusim.Device, opts Options, nodeDelta []float32) []int32 {
	n := g.NumNodes
	grid := (n + opts.BlockDim - 1) / opts.BlockDim
	next := make([]int32, g.NumEdges)
	cursor := make([]int32, 1)
	dev.Launch(gpusim.LaunchConfig{Name: "edge_frontier", Grid: grid, BlockDim: opts.BlockDim}, func(blk *gpusim.Block) {
		lo := blk.Index * opts.BlockDim
		hi := lo + opts.BlockDim
		if hi > n {
			hi = n
		}
		var local []int32
		for v := lo; v < hi; v++ {
			blk.ChargeGlobal(4)
			if nodeDelta[v] <= opts.QueueThreshold {
				continue
			}
			elo, ehi := g.OutOffsets[v], g.OutOffsets[v+1]
			local = append(local, g.OutEdges[elo:ehi]...)
			blk.ChargeGlobal(int64(ehi-elo) * 4)
		}
		if len(local) == 0 {
			return
		}
		blk.SyncThreads()
		end := blk.AtomicAddInt32(cursor, 0, int32(len(local)))
		copy(next[end-int32(len(local)):end], local)
		blk.ChargeGlobal(int64(len(local)) * 4)
	})
	return next[:cursor[0]]
}

// rebuildNodeFrontier is the node paradigm's queue rebuild: the next queue
// holds the successors of every node that moved, deduplicated with an
// atomic test-and-set mark per node.
func rebuildNodeFrontier(g *graph.Graph, dev *gpusim.Device, opts Options, nodeDelta []float32) []int32 {
	n := g.NumNodes
	grid := (n + opts.BlockDim - 1) / opts.BlockDim
	next := make([]int32, n)
	cursor := make([]int32, 1)
	mark := make([]int32, n)
	dev.Launch(gpusim.LaunchConfig{Name: "node_frontier", Grid: grid, BlockDim: opts.BlockDim}, func(blk *gpusim.Block) {
		lo := blk.Index * opts.BlockDim
		hi := lo + opts.BlockDim
		if hi > n {
			hi = n
		}
		var local []int32
		for v := lo; v < hi; v++ {
			blk.ChargeGlobal(4)
			if nodeDelta[v] <= opts.QueueThreshold {
				continue
			}
			elo, ehi := g.OutOffsets[v], g.OutOffsets[v+1]
			blk.ChargeGlobal(int64(ehi-elo) * 4)
			for _, e := range g.OutEdges[elo:ehi] {
				dst := g.EdgeDst[e]
				if blk.AtomicAddInt32(mark, int(dst), 1) == 1 {
					local = append(local, dst)
				}
			}
		}
		if len(local) == 0 {
			return
		}
		blk.SyncThreads()
		end := blk.AtomicAddInt32(cursor, 0, int32(len(local)))
		copy(next[end-int32(len(local)):end], local)
		blk.ChargeGlobal(int64(len(local)) * 4)
	})
	return next[:cursor[0]]
}
