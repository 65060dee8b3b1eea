package bp

import (
	"container/heap"

	"credo/internal/graph"
	"credo/internal/kernel"
	"credo/internal/telemetry"
)

// RunResidual executes asynchronous residual belief propagation — the
// scheduling discipline of Gonzalez et al.'s Residual Splash (the paper's
// reference [5], its strongest CPU-side related work). Instead of sweeping
// iterations, a priority queue orders nodes by the residual of their
// pending update (the L1 distance between the belief they would adopt and
// the one they hold); the largest residual is always applied first, and
// only its successors' residuals are refreshed.
//
// On graphs where convergence is bottlenecked by a few regions, residual
// scheduling applies far fewer updates than synchronous sweeps. Credo's
// §3.5 work queues are the synchronous approximation of this engine; the
// ablation benchmark compares the two.
//
// Result.Iterations reports applied updates divided by the node count
// (sweep-equivalents, rounded up), so options and reports stay comparable
// with the sweep engines.
func RunResidual(g *graph.Graph, opts Options) Result {
	sc := getScratch()
	res := runResidual(g, opts, sc, nil)
	sc.release()
	return res
}

// RunResidualFrom executes residual BP resuming from the graph's current
// beliefs: instead of seeding every node, only the given seed nodes'
// residuals are computed and enqueued, and the scheduling loop spreads
// from there exactly as in a cold run (an applied update always
// refreshes its successors). It is the warm-start entry point of the
// serving layer: when the graph holds a converged fixpoint for a nearby
// evidence set, passing the evidence-perturbed frontier (the changed
// nodes plus their out-neighbours) re-converges with a fraction of a
// cold start's belief updates.
//
// A nil seeds slice means every node — identical to RunResidual. An
// empty non-nil slice is a valid warm start with no perturbation: the
// run returns immediately, converged, with zero updates. Out-of-range,
// observed and input-free seed nodes are skipped; duplicates are
// harmless.
func RunResidualFrom(g *graph.Graph, opts Options, seeds []int32) Result {
	sc := getScratch()
	var res Result
	if seeds == nil {
		res = runResidual(g, opts, sc, nil)
	} else {
		res = runResidual(g, opts, sc, &seeds)
	}
	sc.release()
	return res
}

// runResidual drives the residual schedule. seeds == nil seeds the full
// node space (cold start); otherwise only *seeds enter the queue.
func runResidual(g *graph.Graph, opts Options, sc *runScratch, seeds *[]int32) Result {
	opts = opts.withDefaults(g.NumNodes)
	EmitRunStart(opts.Probe, engResidual, int64(g.NumNodes), opts.Threshold)
	s := g.States
	k := kernel.New(g, opts.Kernel)

	var res Result
	probe := opts.Probe

	sc.cand = growF32(sc.cand, s)
	cand := sc.cand

	pq := &sc.pq
	pq.reset(g.NumNodes)
	seedOne := func(v int32) {
		if v < 0 || int(v) >= g.NumNodes || g.Observed[v] || g.InDegree(v) == 0 {
			return
		}
		residualCandidate(g, &k, sc, &res, v, cand)
		r := graph.L1Diff(cand, g.Belief(v))
		// Nodes already within the element threshold are converged: they
		// would only ever be popped to be discarded, so they stay out of
		// the queue until a parent's change promotes them.
		if r > opts.QueueThreshold {
			pq.update(v, r)
			res.Ops.QueuePushes++
		}
	}
	if seeds == nil {
		for v := int32(0); v < int32(g.NumNodes); v++ {
			seedOne(v)
		}
	} else {
		for _, v := range *seeds {
			seedOne(v)
		}
	}

	batch := int64(g.NumNodes)
	var lastNodes, lastEdges int64
	maxUpdates := int64(opts.MaxIterations) * int64(g.NumNodes)
	var updates int64
	for updates < maxUpdates && pq.Len() > 0 {
		v, r := pq.popMax()
		if r <= opts.QueueThreshold {
			// Every pending residual is below the element threshold.
			res.Converged = true
			break
		}
		// Apply the update.
		residualCandidate(g, &k, sc, &res, v, cand)
		b := g.Belief(v)
		applied := graph.L1Diff(cand, b)
		copy(b, cand)
		res.Ops.NodesProcessed++
		res.Ops.MemStores += int64(s)
		updates++

		// A damped candidate moves the belief only (1−d) of the way to the
		// recombination, so with unchanged parents the node's next residual
		// is exactly d·applied — the node must re-enter the queue at that
		// estimate or it is stranded d·gap short of the fixpoint whenever
		// its neighbours stay sub-threshold (a cold start hides this behind
		// constant neighbour refreshes; a warm start with one large local
		// perturbation does not). The estimate only orders work: the pop
		// recomputes the candidate from live state, and sub-threshold
		// estimates stay out of the queue, preserving the no-re-enqueue
		// discipline for converged nodes.
		if d := opts.Damping; d > 0 {
			if nr := d * applied; nr > opts.QueueThreshold {
				pq.update(v, nr)
				res.Ops.QueuePushes++
			}
		}

		// Refresh the residuals of the successors only. A successor whose
		// refreshed residual sits at or below the element threshold is
		// converged: it leaves the queue (or never enters it) instead of
		// being re-heapified only to be popped and discarded later.
		lo, hi := g.OutOffsets[v], g.OutOffsets[v+1]
		for _, e := range g.OutEdges[lo:hi] {
			dst := g.EdgeDst[e]
			if g.Observed[dst] {
				continue
			}
			residualCandidate(g, &k, sc, &res, dst, cand)
			nr := graph.L1Diff(cand, g.Belief(dst))
			if nr <= opts.QueueThreshold {
				pq.remove(dst)
				continue
			}
			pq.update(dst, nr)
			res.Ops.QueuePushes++
		}

		// Sweep-equivalent batch boundary: one batch is NumNodes applied
		// updates, so trajectories stay comparable with sweep engines.
		if probe != nil && updates%batch == 0 {
			probe.Emit(telemetry.Event{
				Kind:     telemetry.KindIteration,
				Engine:   engResidual,
				Iter:     int32(updates / batch),
				Delta:    pq.maxResidual(),
				Updated:  res.Ops.NodesProcessed - lastNodes,
				Edges:    res.Ops.EdgesProcessed - lastEdges,
				Active:   int64(pq.Len()),
				Items:    int64(g.NumNodes),
				FastPath: sc.ks.Counters.FastPath,
				Rescales: sc.ks.Counters.Rescales,
			})
			lastNodes, lastEdges = res.Ops.NodesProcessed, res.Ops.EdgesProcessed
		}
	}
	if pq.Len() == 0 {
		res.Converged = true
	}
	res.Iterations = int((updates + int64(g.NumNodes) - 1) / int64(g.NumNodes))
	if res.Iterations == 0 && updates > 0 {
		res.Iterations = 1
	}
	res.Ops.Iterations = int64(res.Iterations)
	res.FinalDelta = pq.maxResidual()
	res.Ops.addKernelCounters(sc.ks.Counters)
	EmitRunEnd(probe, engResidual, &res)
	return res
}

// residualCandidate fills cand with the belief v would adopt now, reading
// parents' live beliefs through the kernel's fused gather.
func residualCandidate(g *graph.Graph, k *kernel.Kernel, sc *runScratch, res *Result, v int32, cand []float32) {
	s := g.States
	deg := int64(k.NodeUpdate(&sc.ks, cand, v, g.Beliefs))
	res.Ops.EdgesProcessed += deg
	res.Ops.MatrixOps += deg * int64(s*s)
	res.Ops.LogOps += deg*int64(s) + int64(s)
	res.Ops.RandomLoads += deg * int64((s*4+63)/64)
	res.Ops.MemLoads += deg * int64(s)
}

// residualQueue is an indexed max-heap of node residuals supporting
// decrease/increase-key by node id.
type residualQueue struct {
	nodes []int32   // heap order
	pos   []int32   // node -> heap index, -1 when absent
	val   []float32 // node -> residual
}

func newResidualQueue(n int) *residualQueue {
	pq := &residualQueue{}
	pq.reset(n)
	return pq
}

// reset prepares the queue for n nodes in O(touched), reusing its buffers
// (the queue lives in the pooled run scratch). Between runs pos holds -1
// for every node outside the heap, so only the entries the previous run
// left queued (an iteration-capped run stops with a non-empty heap) need
// clearing, and the arrays are filled only when they grow. val needs no
// reset: it is read only for queued nodes, and update writes it before a
// node enters the heap.
func (pq *residualQueue) reset(n int) {
	for _, v := range pq.nodes {
		pq.pos[v] = -1
	}
	pq.nodes = growI32(pq.nodes, n)[:0]
	if len(pq.pos) < n {
		pq.pos = make([]int32, n)
		for i := range pq.pos {
			pq.pos[i] = -1
		}
		pq.val = make([]float32, n)
	}
}

// Len implements heap.Interface.
func (pq *residualQueue) Len() int { return len(pq.nodes) }

// Less implements heap.Interface (max-heap on residual).
func (pq *residualQueue) Less(i, j int) bool { return pq.val[pq.nodes[i]] > pq.val[pq.nodes[j]] }

// Swap implements heap.Interface.
func (pq *residualQueue) Swap(i, j int) {
	pq.nodes[i], pq.nodes[j] = pq.nodes[j], pq.nodes[i]
	pq.pos[pq.nodes[i]] = int32(i)
	pq.pos[pq.nodes[j]] = int32(j)
}

// Push implements heap.Interface.
func (pq *residualQueue) Push(x any) {
	v := x.(int32)
	pq.pos[v] = int32(len(pq.nodes))
	pq.nodes = append(pq.nodes, v)
}

// Pop implements heap.Interface.
func (pq *residualQueue) Pop() any {
	v := pq.nodes[len(pq.nodes)-1]
	pq.nodes = pq.nodes[:len(pq.nodes)-1]
	pq.pos[v] = -1
	return v
}

// update sets node v's residual, inserting or re-heapifying as needed.
func (pq *residualQueue) update(v int32, r float32) {
	pq.val[v] = r
	if pq.pos[v] < 0 {
		heap.Push(pq, v)
		return
	}
	heap.Fix(pq, int(pq.pos[v]))
}

// remove drops node v from the queue if present; converged nodes leave
// the heap instead of lingering until a discarding pop.
func (pq *residualQueue) remove(v int32) {
	if pq.pos[v] < 0 {
		return
	}
	heap.Remove(pq, int(pq.pos[v]))
}

// popMax removes and returns the node with the largest residual.
func (pq *residualQueue) popMax() (int32, float32) {
	v := heap.Pop(pq).(int32)
	return v, pq.val[v]
}

// maxResidual peeks at the largest pending residual.
func (pq *residualQueue) maxResidual() float32 {
	if len(pq.nodes) == 0 {
		return 0
	}
	return pq.val[pq.nodes[0]]
}
