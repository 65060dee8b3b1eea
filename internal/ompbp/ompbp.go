// Package ompbp is the OpenMP-equivalent CPU parallelization of loopy BP
// (paper §2.4): fork-join parallel-for regions over the node or edge loops
// with static or dynamic scheduling, atomic accumulator updates in the edge
// paradigm, and a reduction for the convergence check.
//
// Faithful to the construct it models, every parallel region forks fresh
// worker goroutines and joins them at a barrier — the per-region spin-up
// and tear-down overhead that the paper measures as a net slowdown for
// regions of sub-millisecond work.
package ompbp

import (
	"math"
	"sync"
	"sync/atomic"

	"credo/internal/bp"
	"credo/internal/graph"
	"credo/internal/kernel"
	"credo/internal/telemetry"
)

// Schedule selects the OpenMP-style loop schedule.
type Schedule int

const (
	// Static splits the iteration space into one contiguous chunk per
	// thread (OpenMP's default schedule).
	Static Schedule = iota
	// Dynamic hands out fixed-size chunks from a shared atomic counter,
	// trading balance for contention — the paper found its extra
	// overhead made the tail-heavy workload worse.
	Dynamic
)

// Options configures a parallel run.
type Options struct {
	bp.Options
	// Threads is the number of worker goroutines per parallel region.
	// Zero means 8, the paper's core count.
	Threads int
	// Schedule is the loop schedule.
	Schedule Schedule
	// ChunkSize is the dynamic-schedule chunk size. Zero means 256.
	ChunkSize int
}

func (o Options) withDefaults() Options {
	if o.Threads <= 0 {
		o.Threads = 8
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = 256
	}
	o.Options = o.Options.ResolveVariant()
	return o
}

// parallelFor runs body over [0, n) with the configured schedule, forking
// opts.Threads goroutines and joining them (one OpenMP parallel region).
// body receives the worker index and the iteration index.
func parallelFor(n int, opts Options, body func(worker, i int)) {
	if n == 0 {
		return
	}
	var wg sync.WaitGroup
	switch opts.Schedule {
	case Dynamic:
		var cursor atomic.Int64
		for w := 0; w < opts.Threads; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				for {
					start := int(cursor.Add(int64(opts.ChunkSize))) - opts.ChunkSize
					if start >= n {
						return
					}
					end := start + opts.ChunkSize
					if end > n {
						end = n
					}
					for i := start; i < end; i++ {
						body(worker, i)
					}
				}
			}(w)
		}
	default: // Static
		chunk := (n + opts.Threads - 1) / opts.Threads
		for w := 0; w < opts.Threads; w++ {
			start := w * chunk
			if start >= n {
				break
			}
			end := start + chunk
			if end > n {
				end = n
			}
			wg.Add(1)
			go func(worker, start, end int) {
				defer wg.Done()
				for i := start; i < end; i++ {
					body(worker, i)
				}
			}(w, start, end)
		}
	}
	wg.Wait()
}

// AtomicAddFloat32 adds delta to the float stored in bits[i] with a CAS
// loop — the atomic update the edge paradigm pays for on every message.
// It is shared with the poolbp engine, whose edge paradigm performs the
// same sharded combine from persistent workers.
func AtomicAddFloat32(bits []uint32, i int, delta float32) {
	for {
		old := atomic.LoadUint32(&bits[i])
		f := math.Float32frombits(old) + delta
		if atomic.CompareAndSwapUint32(&bits[i], old, math.Float32bits(f)) {
			return
		}
	}
}

// RunNode executes loopy BP with per-node processing across CPU threads.
// Each node is owned by exactly one worker per iteration, so no atomics are
// needed; the cost is the repeated random-order loads of parent states.
// Every read observes the previous iteration (beliefs, and Circular BP's
// correction messages through kernel.NewSweep), so a node's update does
// not depend on which thread ran its neighbours first.
func RunNode(g *graph.Graph, opts Options) bp.Result {
	opts = opts.withDefaults()
	o := opts.Options
	if o.Threshold == 0 {
		o.Threshold = bp.DefaultThreshold
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = bp.DefaultMaxIterations
	}
	if o.QueueThreshold == 0 {
		o.QueueThreshold = o.Threshold
	}

	s := g.States
	prev := append([]float32(nil), g.Beliefs...)
	deltas := make([]float32, g.NumNodes)
	inNext := make([]bool, g.NumNodes)
	partial := make([]float32, opts.Threads)
	k := kernel.NewSweep(g, o.Kernel)
	kss := make([]kernel.Scratch, opts.Threads)

	var res bp.Result
	var edgesProcessed, nodesProcessed atomic.Int64

	active := make([]int32, g.NumNodes)
	for v := range active {
		active[v] = int32(v)
	}
	if o.WorkQueue {
		res.Ops.QueuePushes += int64(g.NumNodes)
	}

	probe := o.Probe
	ctx, endTask := telemetry.BeginRun(engNode)
	emitRunStart(probe, engNode, int64(g.NumNodes), o.Threshold)
	var lastNodes, lastEdges int64

	for iter := 0; iter < o.MaxIterations; iter++ {
		res.Iterations = iter + 1
		res.Ops.Iterations++
		endIter := telemetry.StartRegion(ctx, "iteration")
		copy(prev, g.Beliefs)
		for w := range partial {
			partial[w] = 0
		}

		parallelFor(len(active), opts, func(worker, idx int) {
			v := active[idx]
			if g.Observed[v] {
				deltas[v] = 0
				return
			}
			nodesProcessed.Add(1)
			b := g.Beliefs[int(v)*s : int(v)*s+s]
			old := prev[int(v)*s : int(v)*s+s]
			deg := k.NodeUpdate(&kss[worker], b, v, prev)
			edgesProcessed.Add(int64(deg))
			d := graph.L1Diff(b, old)
			deltas[v] = d
			partial[worker] += d
		})
		k.EndSweep()

		var sum float32
		for _, p := range partial {
			sum += p
		}
		res.FinalDelta = sum
		if o.RecordDeltas {
			res.Deltas = append(res.Deltas, sum)
		}

		if o.WorkQueue {
			// Next frontier: successors of every node that moved (their
			// inputs changed). Rebuilt serially, as one ordered region.
			var next []int32
			for _, v := range active {
				if deltas[v] <= o.QueueThreshold {
					continue
				}
				lo, hi := g.OutOffsets[v], g.OutOffsets[v+1]
				for _, e := range g.OutEdges[lo:hi] {
					dst := g.EdgeDst[e]
					if !inNext[dst] {
						inNext[dst] = true
						next = append(next, dst)
						res.Ops.QueuePushes++
					}
				}
			}
			for _, v := range next {
				inNext[v] = false
			}
			active = next
		}

		endIter()
		if probe != nil {
			nodes, edges := nodesProcessed.Load(), edgesProcessed.Load()
			var fast, resc int64
			for w := range kss {
				fast += kss[w].Counters.FastPath
				resc += kss[w].Counters.Rescales
			}
			qlen := int64(-1)
			if o.WorkQueue {
				qlen = int64(len(active))
			}
			probe.Emit(telemetry.Event{
				Kind:     telemetry.KindIteration,
				Engine:   engNode,
				Iter:     int32(iter + 1),
				Delta:    sum,
				Updated:  nodes - lastNodes,
				Edges:    edges - lastEdges,
				Active:   qlen,
				Items:    int64(g.NumNodes),
				FastPath: fast,
				Rescales: resc,
			})
			lastNodes, lastEdges = nodes, edges
		}
		if sum < o.Threshold || (o.WorkQueue && len(active) == 0) {
			res.Converged = true
			break
		}
	}
	res.Ops.EdgesProcessed = edgesProcessed.Load()
	res.Ops.NodesProcessed = nodesProcessed.Load()
	res.Ops.MatrixOps = res.Ops.EdgesProcessed * int64(s*s)
	res.Ops.RandomLoads = res.Ops.EdgesProcessed * int64((s*4+63)/64)
	res.Ops.MemLoads = res.Ops.EdgesProcessed*int64(s) + res.Ops.NodesProcessed*int64(2*s)
	res.Ops.MemStores = res.Ops.NodesProcessed * int64(s)
	res.Ops.LogOps = res.Ops.EdgesProcessed*int64(s) + res.Ops.NodesProcessed*int64(s)
	for w := range kss {
		res.Ops.KernelFastPath += kss[w].Counters.FastPath
		res.Ops.RescaleOps += kss[w].Counters.Rescales
	}
	emitRunEnd(probe, engNode, &res)
	endTask()
	return res
}

// RunEdge executes loopy BP with per-edge processing across CPU threads.
// Edges sharing a destination race on its accumulator, so every
// accumulator update is an atomic CAS — the extra cost the paper weighs
// against the node paradigm's redundant loads.
func RunEdge(g *graph.Graph, opts Options) bp.Result {
	opts = opts.withDefaults()
	o := opts.Options
	if o.Threshold == 0 {
		o.Threshold = bp.DefaultThreshold
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = bp.DefaultMaxIterations
	}
	if o.QueueThreshold == 0 {
		o.QueueThreshold = o.Threshold
	}

	s := g.States
	prev := append([]float32(nil), g.Beliefs...)

	// Log-domain accumulators stored as raw float bits for atomic CAS.
	accBits := make([]uint32, g.NumNodes*s)
	for e := 0; e < g.NumEdges; e++ {
		dst := int(g.EdgeDst[e])
		m := g.Message(int32(e))
		for j := 0; j < s; j++ {
			f := math.Float32frombits(accBits[dst*s+j]) + bp.Logf(m[j])
			accBits[dst*s+j] = math.Float32bits(f)
		}
	}

	k := kernel.New(g, o.Kernel)
	scratch := make([][]float32, opts.Threads)
	for w := range scratch {
		scratch[w] = make([]float32, s)
	}
	kss := make([]kernel.Scratch, opts.Threads)
	nodeDelta := make([]float32, g.NumNodes)
	inNext := make([]bool, g.NumEdges)
	partial := make([]float32, opts.Threads)

	var res bp.Result
	var edgesProcessed, atomicOps atomic.Int64

	active := make([]int32, g.NumEdges)
	for e := range active {
		active[e] = int32(e)
	}
	if o.WorkQueue {
		res.Ops.QueuePushes += int64(g.NumEdges)
	}

	probe := o.Probe
	ctx, endTask := telemetry.BeginRun(engEdge)
	emitRunStart(probe, engEdge, int64(g.NumEdges), o.Threshold)
	var lastEdges int64

	for iter := 0; iter < o.MaxIterations; iter++ {
		res.Iterations = iter + 1
		res.Ops.Iterations++
		endIter := telemetry.StartRegion(ctx, "iteration")
		copy(prev, g.Beliefs)

		// Edge phase: recompute messages and atomically fold the change
		// into the destination accumulators.
		parallelFor(len(active), opts, func(worker, idx int) {
			e := active[idx]
			edgesProcessed.Add(1)
			src, dst := g.EdgeSrc[e], g.EdgeDst[e]
			msg := scratch[worker]
			parent := prev[int(src)*s : int(src)*s+s]
			k.Message(&kss[worker], msg, e, parent)
			old := g.Message(e)
			base := int(dst) * s
			for j := 0; j < s; j++ {
				AtomicAddFloat32(accBits, base+j, bp.Logf(msg[j])-bp.Logf(old[j]))
				old[j] = msg[j]
			}
			atomicOps.Add(int64(s))
		})

		// Combine phase: every node folds its accumulator with its prior.
		for w := range partial {
			partial[w] = 0
		}
		parallelFor(g.NumNodes, opts, func(worker, v int) {
			if g.Observed[v] {
				nodeDelta[v] = 0
				return
			}
			b := g.Beliefs[v*s : v*s+s]
			old := prev[v*s : v*s+s]
			acc := scratch[worker]
			for j := 0; j < s; j++ {
				acc[j] = math.Float32frombits(atomic.LoadUint32(&accBits[v*s+j]))
			}
			bp.ExpNormalize(b, g.Priors[v*s:v*s+s], acc)
			bp.Blend(b, old, o.Damping)
			d := graph.L1Diff(b, old)
			nodeDelta[v] = d
			partial[worker] += d
		})

		var sum float32
		for _, p := range partial {
			sum += p
		}
		res.FinalDelta = sum
		if o.RecordDeltas {
			res.Deltas = append(res.Deltas, sum)
		}

		if o.WorkQueue {
			// Next frontier: the out-edges of every node that moved.
			var next []int32
			for v := int32(0); v < int32(g.NumNodes); v++ {
				if nodeDelta[v] <= o.QueueThreshold {
					continue
				}
				lo, hi := g.OutOffsets[v], g.OutOffsets[v+1]
				for _, e := range g.OutEdges[lo:hi] {
					if !inNext[e] {
						inNext[e] = true
						next = append(next, e)
						res.Ops.QueuePushes++
					}
				}
			}
			for _, e := range next {
				inNext[e] = false
			}
			active = next
		}

		endIter()
		if probe != nil {
			edges := edgesProcessed.Load()
			qlen := int64(-1)
			if o.WorkQueue {
				qlen = int64(len(active))
			}
			probe.Emit(telemetry.Event{
				Kind:   telemetry.KindIteration,
				Engine: engEdge,
				Iter:   int32(iter + 1),
				Delta:  sum,
				// Every iteration's combine phase touches every node.
				Updated: int64(g.NumNodes),
				Edges:   edges - lastEdges,
				Active:  qlen,
				Items:   int64(g.NumEdges),
			})
			lastEdges = edges
		}
		if sum < o.Threshold || (o.WorkQueue && len(active) == 0) {
			res.Converged = true
			break
		}
	}
	res.Ops.EdgesProcessed = edgesProcessed.Load()
	res.Ops.AtomicOps = atomicOps.Load()
	res.Ops.NodesProcessed = res.Ops.Iterations * int64(g.NumNodes)
	res.Ops.MatrixOps = res.Ops.EdgesProcessed * int64(s*s)
	res.Ops.MemLoads = res.Ops.EdgesProcessed*int64(2*s) + res.Ops.NodesProcessed*int64(3*s)
	res.Ops.MemStores = res.Ops.EdgesProcessed*int64(2*s) + res.Ops.NodesProcessed*int64(s)
	res.Ops.LogOps = res.Ops.EdgesProcessed*int64(2*s) + res.Ops.NodesProcessed*int64(s)
	emitRunEnd(probe, engEdge, &res)
	endTask()
	return res
}
