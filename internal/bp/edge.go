package bp

import (
	"credo/internal/graph"
	"credo/internal/kernel"
	"credo/internal/telemetry"
)

// RunEdge executes loopy BP with per-edge processing (paper §3.3, "C Edge"):
// each iteration walks the directed edges; an edge pulls only its source
// node's state, sends it through the joint matrix (the kernel layer's
// transposed fused message), and folds the resulting message into its
// destination's accumulator. Each node then finishes by combining its
// accumulator with its prior. The accumulator is kept in log space and
// updated incrementally (new-message minus old-message), which is what lets
// the work queue skip quiescent edges without losing their contribution;
// the incremental form is inherently logarithmic, so the edge paradigm
// keeps log accumulators under every kernel mode, but a per-edge cache of
// each message's log halves the transcendental count of the steady state.
//
// With the work queue enabled (§3.5), an iteration processes only the
// frontier: edges whose source belief changed by more than QueueThreshold
// in the previous iteration. The run converges when the frontier empties.
//
// In the single-threaded engine the accumulator updates are plain adds; the
// parallel engines perform the same update atomically (the extra cost the
// paper attributes to the edge paradigm).
//
// All buffers — including the O(NumNodes·States) accumulator this engine
// historically reallocated every call — come from a pooled scratch arena,
// so steady-state calls allocate nothing.
func RunEdge(g *graph.Graph, opts Options) Result {
	sc := getScratch()
	res := runEdge(g, opts, sc)
	sc.release()
	return res
}

func runEdge(g *graph.Graph, opts Options, sc *runScratch) Result {
	opts = opts.withDefaults(g.NumNodes)
	EmitRunStart(opts.Probe, engEdge, int64(g.NumEdges), opts.Threshold)
	s := g.States
	matLines := int64(0) // per-edge joint matrices cost a random gather each
	if !g.SharedMatrix() {
		matLines = int64((s*s*4 + 63) / 64)
	}
	k := kernel.New(g, opts.Kernel)
	sc.prev = growF32(sc.prev, len(g.Beliefs))
	prev := sc.prev

	// Log-domain accumulator per node, primed with the initial messages.
	// lmsg mirrors it per edge: the log of each edge's current message, so
	// the steady-state incremental update computes one Logf, not two.
	sc.acc = growF32(sc.acc, g.NumNodes*s)
	acc := sc.acc
	for i := range acc {
		acc[i] = 0
	}
	sc.lmsg = growF32(sc.lmsg, g.NumEdges*s)
	lmsg := sc.lmsg
	for e := 0; e < g.NumEdges; e++ {
		dst := int(g.EdgeDst[e])
		m := g.Message(int32(e))
		for j := 0; j < s; j++ {
			l := Logf(m[j])
			lmsg[e*s+j] = l
			acc[dst*s+j] += l
		}
	}

	var msgArr [graph.MaxStates]float32
	msg := msgArr[:s]

	var res Result
	queue, next := sc.queue, sc.next
	if opts.WorkQueue {
		queue = growI32(queue, g.NumEdges)
		for e := range queue {
			queue[e] = int32(e)
		}
		next = growI32(next, g.NumEdges)[:0]
		sc.inNext = growBool(sc.inNext, g.NumEdges)
		res.Ops.QueuePushes += int64(g.NumEdges)
	}

	probe := opts.Probe
	var lastNodes, lastEdges int64

	done := false
	for iter := 0; iter < opts.MaxIterations && !done; iter++ {
		res.Iterations = iter + 1
		res.Ops.Iterations++
		copy(prev, g.Beliefs)

		if opts.WorkQueue {
			for _, e := range queue {
				edgeStep(g, &k, &sc.ks, &res, e, prev, acc, lmsg, msg, matLines)
			}
		} else {
			for e := int32(0); e < int32(g.NumEdges); e++ {
				edgeStep(g, &k, &sc.ks, &res, e, prev, acc, lmsg, msg, matLines)
			}
		}

		// Combine stage: every node folds its accumulator with its prior.
		var sum float32
		if opts.WorkQueue {
			next = next[:0]
			for v := int32(0); v < int32(g.NumNodes); v++ {
				d := edgeCombine(g, &res, v, prev, acc, opts.Damping)
				sum += d
				if d <= opts.QueueThreshold {
					continue
				}
				// The node moved: its outgoing edges carry stale messages
				// and join the next frontier.
				lo, hi := g.OutOffsets[v], g.OutOffsets[v+1]
				for _, e := range g.OutEdges[lo:hi] {
					if !sc.inNext[e] {
						sc.inNext[e] = true
						next = append(next, e)
						res.Ops.QueuePushes++
					}
				}
			}
			for _, e := range next {
				sc.inNext[e] = false
			}
			queue, next = next, queue
		} else {
			for v := int32(0); v < int32(g.NumNodes); v++ {
				sum += edgeCombine(g, &res, v, prev, acc, opts.Damping)
			}
		}

		res.FinalDelta = sum
		if opts.RecordDeltas {
			res.Deltas = append(res.Deltas, sum)
		}
		if sum < opts.Threshold {
			res.Converged = true
			done = true
		} else if opts.WorkQueue && len(queue) == 0 {
			res.Converged = true
			done = true
		}
		if probe != nil {
			active := int64(-1)
			if opts.WorkQueue {
				active = int64(len(queue))
			}
			probe.Emit(telemetry.Event{
				Kind:     telemetry.KindIteration,
				Engine:   engEdge,
				Iter:     int32(iter + 1),
				Delta:    sum,
				Updated:  res.Ops.NodesProcessed - lastNodes,
				Edges:    res.Ops.EdgesProcessed - lastEdges,
				Active:   active,
				Items:    int64(g.NumEdges),
				FastPath: sc.ks.Counters.FastPath,
				Rescales: sc.ks.Counters.Rescales,
			})
			lastNodes, lastEdges = res.Ops.NodesProcessed, res.Ops.EdgesProcessed
		}
	}
	sc.queue, sc.next = queue, next
	res.Ops.addKernelCounters(sc.ks.Counters)
	EmitRunEnd(probe, engEdge, &res)
	return res
}

// edgeStep recomputes edge e's message from its source's previous belief
// and folds the change into the destination's log accumulator, using the
// cached log of the outgoing message instead of recomputing it.
func edgeStep(g *graph.Graph, k *kernel.Kernel, ks *kernel.Scratch, res *Result, e int32, prev, acc, lmsg, msg []float32, matLines int64) {
	res.Ops.EdgesProcessed++
	s := len(msg)
	src, dst := g.EdgeSrc[e], g.EdgeDst[e]
	k.Message(ks, msg, e, prev[int(src)*s:int(src)*s+s])
	old := g.Messages[int(e)*s : int(e)*s+s]
	a := acc[int(dst)*s : int(dst)*s+s]
	lm := lmsg[int(e)*s : int(e)*s+s]
	for j := 0; j < s; j++ {
		l := Logf(msg[j])
		a[j] += l - lm[j]
		lm[j] = l
		old[j] = msg[j]
	}
	res.Ops.MemLoads += int64(2 * s) // source belief + old message log
	res.Ops.RandomLoads += matLines
	res.Ops.MemStores += int64(2 * s)
	res.Ops.MatrixOps += int64(s * s)
	// The abstract algorithm evaluates two logs per entry (new and old
	// message); the cache elides one, but the count models the algorithm
	// so perfmodel pricing stays comparable.
	res.Ops.LogOps += int64(2 * s)
}

// edgeCombine folds node v's log accumulator with its prior and returns
// the L1 belief change.
func edgeCombine(g *graph.Graph, res *Result, v int32, prev, acc []float32, damping float32) float32 {
	if g.Observed[v] {
		return 0
	}
	res.Ops.NodesProcessed++
	s := g.States
	b := g.Beliefs[int(v)*s : int(v)*s+s]
	old := prev[int(v)*s : int(v)*s+s]
	ExpNormalize(b, g.Priors[int(v)*s:int(v)*s+s], acc[int(v)*s:int(v)*s+s])
	Blend(b, old, damping)
	res.Ops.LogOps += int64(s)
	res.Ops.MemLoads += int64(3 * s) // prior + accumulator + previous
	res.Ops.MemStores += int64(s)
	return graph.L1Diff(b, old)
}
