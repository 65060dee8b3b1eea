package bp

import (
	"credo/internal/graph"
	"credo/internal/kernel"
	"credo/internal/telemetry"
)

// RunNode executes loopy BP with per-node processing (paper §3.3, "C Node"):
// each iteration walks the nodes; a node pulls the state of every parent,
// sends it through the edge's joint matrix, and combines the updates with
// its prior. No accumulator or atomics are needed, but every in-edge costs
// a random-order load of the parent's full belief vector. Message math and
// combine run through the kernel layer's fused gather (Options.Kernel).
//
// Updates are Jacobi-style: all reads within an iteration observe the
// state of the previous iteration, matching the parallel implementations.
// That covers the parent beliefs and, under VariantCircular, the reverse
// messages of the loop correction: the kernel is built with
// kernel.NewSweep and commits each sweep's messages at the sweep's end, so
// the result does not depend on the order the nodes are visited in.
//
// With the work queue enabled (§3.5), an iteration processes only the
// frontier: nodes with at least one parent whose belief changed by more
// than QueueThreshold in the previous iteration. Quiescent regions are
// skipped and re-activate automatically when change reaches them; the run
// converges when the frontier empties.
//
// The hot path allocates nothing in steady state: all buffers come from a
// pooled scratch arena.
func RunNode(g *graph.Graph, opts Options) Result {
	sc := getScratch()
	res := runNode(g, opts, sc)
	sc.release()
	return res
}

func runNode(g *graph.Graph, opts Options, sc *runScratch) Result {
	opts = opts.withDefaults(g.NumNodes)
	defer opts.Trace.Span(engNode).End()
	s := g.States
	gatherLines := int64((s*4 + 63) / 64) // cache lines per random parent gather
	matLines := int64(0)                  // per-edge joint matrices are a second random gather
	if !g.SharedMatrix() {
		matLines = int64((s*s*4 + 63) / 64)
	}
	k := kernel.NewSweep(g, opts.Kernel)
	sc.prev = growF32(sc.prev, len(g.Beliefs))
	prev := sc.prev

	var res Result
	queue, next := sc.queue, sc.next
	if opts.WorkQueue {
		queue = growI32(queue, g.NumNodes)
		for v := range queue {
			queue[v] = int32(v)
		}
		next = growI32(next, g.NumNodes)[:0]
		sc.inNext = growBool(sc.inNext, g.NumNodes)
		res.Ops.QueuePushes += int64(g.NumNodes)
	}

	probe := opts.Probe
	ctx, endTask := telemetry.BeginRun(engNode)
	emitRunStart(probe, engNode, int64(g.NumNodes), opts.Threshold)
	var lastNodes, lastEdges int64

	done := false
	for iter := 0; iter < opts.MaxIterations && !done; iter++ {
		res.Iterations = iter + 1
		res.Ops.Iterations++
		endIter := telemetry.StartRegion(ctx, "iteration")
		copy(prev, g.Beliefs)

		var sum float32
		if opts.WorkQueue {
			next = next[:0]
			for _, v := range queue {
				d := nodeStep(g, &k, sc, &res, v, prev, gatherLines, matLines)
				sum += d
				if d <= opts.QueueThreshold {
					continue
				}
				// The node moved: its outgoing messages will change, so
				// its successors join the next frontier.
				lo, hi := g.OutOffsets[v], g.OutOffsets[v+1]
				for _, e := range g.OutEdges[lo:hi] {
					dst := g.EdgeDst[e]
					if !sc.inNext[dst] {
						sc.inNext[dst] = true
						next = append(next, dst)
						res.Ops.QueuePushes++
					}
				}
			}
			for _, v := range next {
				sc.inNext[v] = false
			}
			queue, next = next, queue
		} else {
			for v := int32(0); v < int32(g.NumNodes); v++ {
				sum += nodeStep(g, &k, sc, &res, v, prev, gatherLines, matLines)
			}
		}
		k.EndSweep()

		res.FinalDelta = sum
		if opts.RecordDeltas {
			res.Deltas = append(res.Deltas, sum)
		}
		if sum < opts.Threshold {
			res.Converged = true
			done = true
		} else if opts.WorkQueue && len(queue) == 0 {
			// The frontier is empty: no node's inputs are changing beyond
			// the per-element threshold.
			res.Converged = true
			done = true
		}
		endIter()
		if probe != nil {
			active := int64(-1)
			if opts.WorkQueue {
				active = int64(len(queue))
			}
			probe.Emit(telemetry.Event{
				Kind:     telemetry.KindIteration,
				Engine:   engNode,
				Iter:     int32(iter + 1),
				Delta:    sum,
				Updated:  res.Ops.NodesProcessed - lastNodes,
				Edges:    res.Ops.EdgesProcessed - lastEdges,
				Active:   active,
				Items:    int64(g.NumNodes),
				FastPath: sc.ks.Counters.FastPath,
				Rescales: sc.ks.Counters.Rescales,
			})
			lastNodes, lastEdges = res.Ops.NodesProcessed, res.Ops.EdgesProcessed
		}
	}
	sc.queue, sc.next = queue, next
	res.Ops.addKernelCounters(sc.ks.Counters)
	emitRunEnd(probe, engNode, &res)
	endTask()
	return res
}

// nodeStep recomputes node v's belief from prev through the kernel and
// returns its L1 change. It is the per-node body of both the full sweep
// and the frontier sweep, kept a plain function so RunNode's hot path
// carries no closures (closures allocate). Damping and loop correction
// happen inside the kernel (Options.Kernel carries both after
// ResolveVariant).
func nodeStep(g *graph.Graph, k *kernel.Kernel, sc *runScratch, res *Result, v int32, prev []float32, gatherLines, matLines int64) float32 {
	if g.Observed[v] {
		return 0
	}
	res.Ops.NodesProcessed++
	s := g.States
	b := g.Beliefs[int(v)*s : int(v)*s+s]
	old := prev[int(v)*s : int(v)*s+s]
	deg := int64(k.NodeUpdate(&sc.ks, b, v, prev))
	res.Ops.EdgesProcessed += deg
	res.Ops.RandomLoads += deg * (gatherLines + matLines)
	res.Ops.MemLoads += deg*int64(s) + int64(2*s) // parent gathers + prior + previous belief
	res.Ops.MatrixOps += deg * int64(s*s)
	res.Ops.LogOps += deg*int64(s) + int64(s)
	res.Ops.MemStores += int64(s)
	return graph.L1Diff(b, old)
}
