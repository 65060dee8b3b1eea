package bp

import (
	"credo/internal/graph"
	"credo/internal/kernel"
	"credo/internal/telemetry"
)

// RunMaxProduct executes loopy max-product BP (the MAP-decoding sibling of
// Algorithm 1): messages carry the best-scoring assignment rather than the
// marginal mass, so after convergence each node's belief is its
// max-marginal and its argmax decodes the (approximate) most-probable
// joint state. The image-correction use case is the classic application:
// per-pixel argmax of max-marginals is the denoised image.
//
// Processing is per-node (the paradigm's gather loop) with the same
// Jacobi updates (the loop correction's reverse messages included),
// log-space accumulation, damping and work-queue frontier as RunNode.
func RunMaxProduct(g *graph.Graph, opts Options) Result {
	sc := getScratch()
	res := runMaxProduct(g, opts, sc)
	sc.release()
	return res
}

func runMaxProduct(g *graph.Graph, opts Options, sc *runScratch) Result {
	opts = opts.withDefaults(g.NumNodes)
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
	ctx, endTask := telemetry.BeginRun(engMaxProduct)
	emitRunStart(probe, engMaxProduct, int64(g.NumNodes), opts.Threshold)
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
				d := maxStep(g, &k, sc, &res, v, prev)
				sum += d
				if d <= opts.QueueThreshold {
					continue
				}
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
				sum += maxStep(g, &k, sc, &res, v, prev)
			}
		}
		k.EndSweep()

		res.FinalDelta = sum
		if opts.RecordDeltas {
			res.Deltas = append(res.Deltas, sum)
		}
		if sum < opts.Threshold || (opts.WorkQueue && len(queue) == 0) {
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
				Engine:   engMaxProduct,
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
	emitRunEnd(probe, engMaxProduct, &res)
	endTask()
	return res
}

// maxStep recomputes node v's max-marginal from prev through the kernel's
// max-product fold and returns its L1 change. Damping happens inside the
// kernel (Options.Kernel carries it after ResolveVariant).
func maxStep(g *graph.Graph, k *kernel.Kernel, sc *runScratch, res *Result, v int32, prev []float32) float32 {
	if g.Observed[v] {
		return 0
	}
	res.Ops.NodesProcessed++
	s := g.States
	b := g.Beliefs[int(v)*s : int(v)*s+s]
	old := prev[int(v)*s : int(v)*s+s]
	deg := int64(k.NodeUpdateMax(&sc.ks, b, v, prev))
	res.Ops.EdgesProcessed += deg
	res.Ops.MatrixOps += deg * int64(s*s)
	res.Ops.LogOps += deg*int64(s) + int64(s)
	return graph.L1Diff(b, old)
}

// DecodeMAP returns each node's argmax belief state — the approximate MAP
// assignment after a max-product run (or the marginal-maximizer after a
// sum-product run).
func DecodeMAP(g *graph.Graph) []int {
	out := make([]int, g.NumNodes)
	for v := int32(0); v < int32(g.NumNodes); v++ {
		b := g.Belief(v)
		best := 0
		for j, p := range b {
			if p > b[best] {
				best = j
			}
		}
		out[v] = best
	}
	return out
}

// BruteForceMAP enumerates the joint state space and returns the exact
// most-probable assignment and its unnormalized score. Feasible only for
// tiny networks (the max-product test oracle).
func BruteForceMAP(g *graph.Graph) ([]int, float64, error) {
	s := g.States
	total := 1
	for i := 0; i < g.NumNodes; i++ {
		if total > maxEnumerationStates/s {
			return nil, 0, errInfeasible(s, g.NumNodes)
		}
		total *= s
	}
	assign := make([]int, g.NumNodes)
	best := make([]int, g.NumNodes)
	bestW := -1.0
	for idx := 0; idx < total; idx++ {
		rem := idx
		for v := 0; v < g.NumNodes; v++ {
			assign[v] = rem % s
			rem /= s
		}
		w := 1.0
		for v := 0; v < g.NumNodes && w > 0; v++ {
			w *= float64(g.Prior(int32(v))[assign[v]])
		}
		for e := 0; e < g.NumEdges && w > 0; e++ {
			w *= float64(g.Matrix(int32(e)).At(assign[g.EdgeSrc[e]], assign[g.EdgeDst[e]]))
		}
		if w > bestW {
			bestW = w
			copy(best, assign)
		}
	}
	return best, bestW, nil
}

func errInfeasible(s, n int) error {
	return &infeasibleError{states: s, nodes: n}
}

type infeasibleError struct{ states, nodes int }

func (e *infeasibleError) Error() string {
	return "bp: brute force MAP infeasible for the joint state space"
}
