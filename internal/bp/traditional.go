package bp

import (
	"credo/internal/graph"
	"credo/internal/kernel"
	"credo/internal/telemetry"
)

// RunTraditional executes the classical non-loopy, level-ordered BP the
// paper uses as its §2.1.1 control: φ updates sweep forward from the root
// nodes level by level, then ψ updates sweep backward from the terminal
// nodes, and the algorithm runs "simply twice" rather than to convergence.
//
// The implementation deliberately mirrors the naive structure the paper
// profiles — level determination by iterative relaxation over the whole
// edge list and by-level processing that scans the full node array per
// level — because those overheads are precisely what makes the traditional
// algorithm orders of magnitude slower than loopy BP on large graphs. The
// per-message math itself runs through the kernel layer like every other
// engine, and the run allocates from the pooled scratch arena.
func RunTraditional(g *graph.Graph, opts Options) Result {
	sc := getScratch()
	res := runTraditional(g, opts, sc)
	sc.release()
	return res
}

func runTraditional(g *graph.Graph, opts Options, sc *runScratch) Result {
	opts = opts.withDefaults(g.NumNodes)
	k := kernel.New(g, opts.Kernel)
	var res Result

	probe := opts.Probe
	EmitRunStart(probe, engTraditional, int64(g.NumNodes), opts.Threshold)

	// Level determination: level[v] = 1 + max(level[parent]), computed by
	// repeated relaxation sweeps over the edge list (the "enormous
	// overhead" of §2.1.1). Cycles are cut by capping a node's level at
	// NumNodes. The naive implementation the paper profiles runs the full
	// NumNodes relaxation passes unconditionally — O(V·E) — so that cost
	// is what the operation counts report; execution itself stops at the
	// fixpoint, which leaves the computed levels identical.
	sc.level = growI32(sc.level, g.NumNodes)
	level := sc.level
	for i := range level {
		level[i] = 0
	}
	maxLevel := int32(0)
	for pass := 0; pass < g.NumNodes; pass++ {
		changed := false
		for e := 0; e < g.NumEdges; e++ {
			u, v := g.EdgeSrc[e], g.EdgeDst[e]
			if l := level[u] + 1; l > level[v] && l < int32(g.NumNodes) {
				level[v] = l
				changed = true
				if l > maxLevel {
					maxLevel = l
				}
			}
		}
		res.Ops.Iterations++
		if !changed {
			break
		}
	}
	res.Ops.MemLoads += 2 * int64(g.NumNodes) * int64(g.NumEdges)

	// Forward (φ) sweep: naive by-level processing scans every node at
	// every level.
	for l := int32(0); l <= maxLevel; l++ {
		for v := int32(0); v < int32(g.NumNodes); v++ {
			res.Ops.MemLoads++
			if level[v] == l {
				tradForward(g, &k, sc, &res, v, level)
			}
		}
	}
	// The two passes report as iterations 1 (forward) and 2 (backward):
	// the traditional algorithm has no residual, so Delta stays 0 and the
	// trajectory carries the two sweeps' update counts.
	if probe != nil {
		probe.Emit(telemetry.Event{
			Kind:     telemetry.KindIteration,
			Engine:   engTraditional,
			Iter:     1,
			Updated:  res.Ops.NodesProcessed,
			Edges:    res.Ops.EdgesProcessed,
			Active:   -1,
			Items:    int64(g.NumNodes),
			FastPath: sc.ks.Counters.FastPath,
			Rescales: sc.ks.Counters.Rescales,
		})
	}
	fwdNodes, fwdEdges := res.Ops.NodesProcessed, res.Ops.EdgesProcessed

	// Backward (ψ) sweep.
	for l := maxLevel; l >= 0; l-- {
		for v := int32(0); v < int32(g.NumNodes); v++ {
			res.Ops.MemLoads++
			if level[v] == l {
				tradBackward(g, &k, sc, &res, v, level)
			}
		}
	}
	if probe != nil {
		probe.Emit(telemetry.Event{
			Kind:     telemetry.KindIteration,
			Engine:   engTraditional,
			Iter:     2,
			Updated:  res.Ops.NodesProcessed - fwdNodes,
			Edges:    res.Ops.EdgesProcessed - fwdEdges,
			Active:   -1,
			Items:    int64(g.NumNodes),
			FastPath: sc.ks.Counters.FastPath,
			Rescales: sc.ks.Counters.Rescales,
		})
	}

	res.Iterations = 2
	res.Converged = true
	res.Ops.addKernelCounters(sc.ks.Counters)
	EmitRunEnd(probe, engTraditional, &res)
	return res
}

// tradForward folds the φ messages of v's strictly-lower-level parents
// into its belief.
func tradForward(g *graph.Graph, k *kernel.Kernel, sc *runScratch, res *Result, v int32, level []int32) {
	if g.Observed[v] {
		return
	}
	res.Ops.NodesProcessed++
	s := g.States
	lo, hi := g.InOffsets[v], g.InOffsets[v+1]
	k.Begin(&sc.ks, g.Priors[int(v)*s:int(v)*s+s], int(hi-lo))
	n := int64(0)
	for _, e := range g.InEdges[lo:hi] {
		src := g.EdgeSrc[e]
		if level[src] >= level[v] {
			continue // φ updates flow strictly downward
		}
		k.Accumulate(&sc.ks, e, g.Beliefs[int(src)*s:int(src)*s+s])
		n++
	}
	if n == 0 {
		return
	}
	k.Finish(&sc.ks, g.Beliefs[int(v)*s:int(v)*s+s])
	res.Ops.EdgesProcessed += n
	res.Ops.MatrixOps += n * int64(s*s)
	res.Ops.LogOps += n*int64(s) + int64(s)
	res.Ops.MemLoads += n * int64(s)
	res.Ops.MemStores += int64(s)
}

// tradBackward folds the ψ messages of v's strictly-higher-level children
// back through their edge matrices — the reverse (row-major) direction.
// The combine's "prior" is the belief the forward sweep just produced.
func tradBackward(g *graph.Graph, k *kernel.Kernel, sc *runScratch, res *Result, v int32, level []int32) {
	if g.Observed[v] {
		return
	}
	res.Ops.NodesProcessed++
	s := g.States
	b := g.Beliefs[int(v)*s : int(v)*s+s]
	lo, hi := g.OutOffsets[v], g.OutOffsets[v+1]
	k.Begin(&sc.ks, b, int(hi-lo))
	n := int64(0)
	for _, e := range g.OutEdges[lo:hi] {
		dst := g.EdgeDst[e]
		if level[dst] <= level[v] {
			continue // ψ updates flow strictly upward
		}
		// Message from the child back through the edge matrix:
		// m[x_v] = Σ_{x_c} J[x_v, x_c]·b_c[x_c].
		k.AccumulateReverse(&sc.ks, e, g.Beliefs[int(dst)*s:int(dst)*s+s])
		n++
	}
	if n == 0 {
		return
	}
	k.Finish(&sc.ks, b)
	res.Ops.EdgesProcessed += n
	res.Ops.MatrixOps += n * int64(s*s)
	res.Ops.LogOps += n*int64(s) + int64(s)
	res.Ops.MemLoads += n * int64(s)
	res.Ops.MemStores += int64(s)
}
