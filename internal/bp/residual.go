package bp

import (
	"credo/internal/graph"
	"credo/internal/kernel"
	"credo/internal/telemetry"
)

// RunResidual executes asynchronous residual belief propagation — the
// scheduling discipline of Gonzalez et al.'s Residual Splash (the paper's
// reference [5], its strongest CPU-side related work). Instead of sweeping
// iterations, a priority queue orders nodes by the residual of their
// pending update (the L1 distance between the belief they would adopt and
// the one they hold), and the largest is always popped first. It is a
// cold start: RunResidualFrom with every node as a seed.
//
// Priorities are estimates, as in relaxbp and in Aksenov, Alistarh and
// Korhonen's formulation: an applied update of residual r pushes each
// unobserved successor at r (the sender's movement estimates how far the
// receiver may move) without computing the successor's candidate. The pop
// recomputes the candidate from live beliefs; one whose true residual is
// at or below QueueThreshold applies nothing and counts in
// Ops.WastedUpdates. A candidate is therefore computed only for a seed or
// a pop, never for every successor of every update.
//
// On graphs where convergence is bottlenecked by a few regions, residual
// scheduling applies far fewer updates than synchronous sweeps. Credo's
// §3.5 work queues are the synchronous approximation of this engine; the
// ablation benchmark compares the two.
//
// Result.Iterations reports applied updates divided by the node count
// (sweep-equivalents, rounded up), so options and reports stay comparable
// with the sweep engines. The run converges when the queue empties; its
// FinalDelta is then the largest residual a pop discarded, and the last
// applied residual when MaxIterations capped the run.
func RunResidual(g *graph.Graph, opts Options) Result {
	return RunResidualFrom(g, opts, nil)
}

// RunResidualFrom executes residual BP resuming from the graph's current
// beliefs: instead of seeding every node, only the given seed nodes'
// candidates are computed, and a seed enters the queue only if its true
// residual exceeds QueueThreshold. The scheduling loop then spreads from
// there exactly as in a cold run. It is the warm-start entry point of the
// serving layer: when the graph holds a converged fixpoint for a nearby
// evidence set, passing the evidence-perturbed frontier (the changed
// nodes plus their out-neighbours) re-converges with a fraction of a
// cold start's belief updates.
//
// A nil seeds slice means every node — identical to RunResidual. An
// empty non-nil slice is a valid warm start with no perturbation: the
// run returns immediately, converged, with zero updates. Out-of-range,
// observed and input-free seed nodes are skipped; duplicates are
// harmless. A seeded run reports the nodes it moved in Result.Moved, so
// a caller holding a copy of the starting beliefs can bring it up to
// date row by row; a cold run, and a seeded one that applies more than
// NumNodes updates, leave Moved nil. A cold run allocates nothing.
func RunResidualFrom(g *graph.Graph, opts Options, seeds []int32) Result {
	sc := getScratch()
	res := runResidual(g, opts, sc, seeds)
	sc.release()
	return res
}

// runResidual drives the residual schedule. seeds == nil seeds the full
// node space (cold start); otherwise only the listed nodes are seeded.
func runResidual(g *graph.Graph, opts Options, sc *runScratch, seeds []int32) Result {
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
		// A seed already within the element threshold is converged: it
		// stays out of the queue until a parent's change pushes it, so a
		// no-op perturbation schedules nothing.
		if r := graph.L1Diff(cand, g.Belief(v)); r > opts.QueueThreshold {
			pq.raise(v, r)
			res.Ops.QueuePushes++
		}
	}
	if seeds == nil {
		for v := int32(0); v < int32(g.NumNodes); v++ {
			seedOne(v)
		}
	}
	for _, v := range seeds {
		seedOne(v)
	}

	batch := int64(g.NumNodes)
	var lastNodes, lastEdges int64
	maxUpdates := int64(opts.MaxIterations) * int64(g.NumNodes)
	var updates int64
	var lastApplied, maxDiscarded float32
	var moved []int32 // tracked only for seeded runs
	if seeds != nil {
		moved = []int32{}
	}
	for updates < maxUpdates && pq.Len() > 0 {
		v := pq.popMax()
		residualCandidate(g, &k, sc, &res, v, cand)
		b := g.Belief(v)
		applied := graph.L1Diff(cand, b)
		if applied <= opts.QueueThreshold {
			// The estimate that scheduled this pop overstated the node's
			// movement: it is already converged, nothing to apply.
			res.Ops.WastedUpdates++
			maxDiscarded = max(maxDiscarded, applied)
			continue
		}
		copy(b, cand)
		// Past N entries copying every row is no dearer than the list,
		// so a long run stops tracking.
		if moved != nil && len(moved) < g.NumNodes {
			moved = append(moved, v)
		} else {
			moved = nil
		}
		res.Ops.NodesProcessed++
		res.Ops.MemStores += int64(s)
		updates++
		lastApplied = applied

		// A damped candidate moves the belief only (1−d) of the way to the
		// recombination, so with unchanged parents the node's next residual
		// is exactly d·applied — the node must re-enter the queue at that
		// estimate or it is stranded d·gap short of the fixpoint whenever
		// its neighbours stay sub-threshold. Sub-threshold remainders stay
		// out of the queue.
		if d := opts.Damping; d > 0 {
			if nr := d * applied; nr > opts.QueueThreshold {
				pq.raise(v, nr)
				res.Ops.QueuePushes++
			}
		}

		// Push every unobserved successor at the applied residual: the
		// sender's movement is the estimate of how far the receiver may
		// move, and the receiver's pop recomputes the truth.
		lo, hi := g.OutOffsets[v], g.OutOffsets[v+1]
		for _, e := range g.OutEdges[lo:hi] {
			if dst := g.EdgeDst[e]; !g.Observed[dst] {
				pq.raise(dst, applied)
				res.Ops.QueuePushes++
			}
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
				Wasted:   res.Ops.WastedUpdates,
				FastPath: sc.ks.Counters.FastPath,
				Rescales: sc.ks.Counters.Rescales,
			})
			lastNodes, lastEdges = res.Ops.NodesProcessed, res.Ops.EdgesProcessed
		}
	}
	res.Converged = pq.Len() == 0
	res.Moved = moved
	res.FinalDelta = lastApplied
	if res.Converged {
		res.FinalDelta = maxDiscarded
	}
	res.Iterations = int((updates + int64(g.NumNodes) - 1) / int64(g.NumNodes))
	res.Ops.Iterations = int64(res.Iterations)
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

// residualQueue is an indexed max-heap of residual estimates. A node's
// queued value can only rise (raise), never fall: a pop recomputes the
// node's true residual, so an estimate never needs lowering.
type residualQueue struct {
	nodes []int32   // heap order
	pos   []int32   // node -> heap index, -1 when absent
	val   []float32 // node -> queued estimate
}

// reset prepares the queue for n nodes in O(touched), reusing its buffers
// (the queue lives in the pooled run scratch). Between runs pos holds -1
// for every node outside the heap, so only the entries the previous run
// left queued (an iteration-capped run stops with a non-empty heap) need
// clearing, and the arrays are filled only when they grow. val needs no
// reset: it is read only for queued nodes, and raise writes it before a
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

// Len reports the number of queued nodes.
func (pq *residualQueue) Len() int { return len(pq.nodes) }

// raise queues v at estimate r, or lifts its queued estimate to r when r
// is larger; a smaller r leaves a queued node unchanged.
func (pq *residualQueue) raise(v int32, r float32) {
	i := pq.pos[v]
	if i < 0 {
		i = int32(len(pq.nodes))
		pq.nodes = append(pq.nodes, v)
	} else if r <= pq.val[v] {
		return
	}
	pq.val[v] = r
	// Sift up: move the hole toward the root past every smaller parent.
	for i > 0 {
		p := (i - 1) / 2
		u := pq.nodes[p]
		if pq.val[u] >= r {
			break
		}
		pq.nodes[i], pq.pos[u] = u, i
		i = p
	}
	pq.nodes[i], pq.pos[v] = v, i
}

// popMax removes and returns the node with the largest estimate.
func (pq *residualQueue) popMax() int32 {
	top := pq.nodes[0]
	pq.pos[top] = -1
	n := int32(len(pq.nodes) - 1)
	v := pq.nodes[n]
	pq.nodes = pq.nodes[:n]
	if n == 0 {
		return top
	}
	// Sift the former last entry down from the root: move the hole toward
	// the leaves past every larger child.
	r, i := pq.val[v], int32(0)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && pq.val[pq.nodes[c+1]] > pq.val[pq.nodes[c]] {
			c++
		}
		u := pq.nodes[c]
		if pq.val[u] <= r {
			break
		}
		pq.nodes[i], pq.pos[u] = u, i
		i = c
	}
	pq.nodes[i], pq.pos[v] = v, i
	return top
}

// maxResidual peeks at the largest queued estimate.
func (pq *residualQueue) maxResidual() float32 {
	if len(pq.nodes) == 0 {
		return 0
	}
	return pq.val[pq.nodes[0]]
}
