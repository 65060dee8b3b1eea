// Package poolbp is the persistent worker-pool runtime for loopy BP — the
// Go-native answer to the fork-join OpenMP port of paper §2.4 (reproduced
// in ompbp). Where ompbp forks and joins fresh goroutines around every
// sub-millisecond loop, poolbp spins up a fixed team once per Run and
// drives it with channel signals, following the long-lived-worker designs
// of the relaxed-scheduling BP literature (Aksenov et al.; Van der Merwe
// et al.).
//
// Both paradigms of the paper are provided:
//
//   - RunNode: per-node, pull-based processing. No atomics touch the
//     numeric state; each node is owned by exactly one worker per sweep
//     and updates are Jacobi-style against a double buffer (beliefs, and
//     Circular BP's correction messages through kernel.NewSweep), so the
//     final beliefs are bitwise identical for any worker count.
//   - RunEdge: per-edge processing with the sharded atomic combine into
//     the destination accumulators (the CAS cost the paper weighs against
//     the node paradigm's redundant loads).
//
// Work is organized as sharded queues of unconverged items: the item space
// is cut into contiguous shards (a count derived from the graph alone, so
// results never depend on the worker count), each shard keeps its own
// active list, and workers claim whole shards from an atomic cursor.
// Convergence bookkeeping is batched — per-shard partial deltas are
// reduced serially in shard order only every CheckEvery sweeps — so no
// global barrier or shared counter is touched per item.
package poolbp

import (
	"math"
	"runtime"
	"sync/atomic"

	"credo/internal/bp"
	"credo/internal/graph"
	"credo/internal/kernel"
	"credo/internal/ompbp"
	"credo/internal/telemetry"
)

// Engine names as they appear in telemetry events.
const (
	engNode = "pool.node"
	engEdge = "pool.edge"
)

// DefaultCheckEvery is the convergence-check batching factor: the global
// delta reduction runs once per this many sweeps.
const DefaultCheckEvery = 4

// Options configures a pool run.
type Options struct {
	bp.Options

	// Workers is the size of the persistent team. Zero means
	// runtime.NumCPU().
	Workers int

	// CheckEvery batches the convergence check: the per-shard deltas are
	// reduced and compared against the threshold every CheckEvery sweeps
	// (and always on the final sweep and on queue exhaustion). A run may
	// therefore execute up to CheckEvery-1 sweeps past the point a
	// per-sweep check would have stopped it. Zero means DefaultCheckEvery.
	// With RecordDeltas set, Result.Deltas holds one entry per check, not
	// per sweep.
	CheckEvery int

	// Shards overrides the shard count of the paradigm's item space
	// (nodes for RunNode, edges for RunEdge). Zero derives it from the
	// item count alone — never from Workers, which is what keeps the
	// per-node paradigm deterministic under any team size.
	Shards int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.CheckEvery <= 0 {
		o.CheckEvery = DefaultCheckEvery
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

// shardCount picks the number of item shards: enough for dynamic load
// balance on large graphs, at least ~8 items per shard on small ones. It
// depends only on the item count (and an explicit override), never on the
// worker count.
func shardCount(items, override int) int {
	if override > 0 {
		if override > items {
			override = items
		}
		if override < 1 {
			override = 1
		}
		return override
	}
	s := 256
	if items < 8*s {
		s = (items + 7) / 8
	}
	if s < 1 {
		s = 1
	}
	return s
}

// shardRange returns the half-open item range of shard sh.
func shardRange(sh, items, shards int) (lo, hi int) {
	return sh * items / shards, (sh + 1) * items / shards
}

// initialShardLists fills one active list per shard with every item id.
func initialShardLists(items, shards int) [][]int32 {
	lists := make([][]int32, shards)
	for sh := range lists {
		lo, hi := shardRange(sh, items, shards)
		lst := make([]int32, 0, hi-lo)
		for i := lo; i < hi; i++ {
			lst = append(lst, int32(i))
		}
		lists[sh] = lst
	}
	return lists
}

// newShardRebuilder returns the frontier-rebuild region as a reusable
// step: every shard rescans its item range, promotes marked items into its
// active list and clears the marks. Each shard is rebuilt by exactly one
// worker and items are promoted in id order, so the resulting queues are
// independent of the worker count. The returned func runs one rebuild and
// reports the total number of active items; building the region body once
// per run keeps the sweep loop allocation-free.
func newShardRebuilder(run func(func(int)), cursor *atomic.Int64, lists [][]int32, mark []uint32, items, shards int, workerOps []bp.OpCounts) func() int {
	body := func(w int) {
		ops := &workerOps[w]
		for {
			sh := int(cursor.Add(1)) - 1
			if sh >= shards {
				return
			}
			lo, hi := shardRange(sh, items, shards)
			lst := lists[sh][:0]
			for i := lo; i < hi; i++ {
				// The marks were stored atomically in the previous
				// region; the pool barrier orders them before this read.
				if mark[i] != 0 {
					mark[i] = 0
					lst = append(lst, int32(i))
					ops.QueuePushes++
				}
			}
			lists[sh] = lst
		}
	}
	return func() int {
		cursor.Store(0)
		run(body)
		total := 0
		for _, lst := range lists {
			total += len(lst)
		}
		return total
	}
}

// markOnce sets mark[i] if it is not already set. Marking is idempotent,
// so concurrent markers need no CAS — the load merely skips redundant
// stores on hot items.
func markOnce(mark []uint32, i int32) {
	if atomic.LoadUint32(&mark[i]) == 0 {
		atomic.StoreUint32(&mark[i], 1)
	}
}

// RunNode executes loopy BP with per-node processing on the persistent
// pool. Beliefs are double-buffered and every node is owned by exactly one
// worker per sweep, so no atomics touch the numeric state and the final
// beliefs are bitwise identical for any worker count.
func RunNode(g *graph.Graph, opts Options) bp.Result {
	opts = opts.withDefaults()
	o := opts.Options
	bp.EmitRunStart(o.Probe, engNode, int64(g.NumNodes), o.Threshold)
	s := g.States
	gatherLines := int64((s*4 + 63) / 64) // cache lines per random parent gather
	matLines := int64(0)                  // per-edge joint matrices are a second random gather
	if !g.SharedMatrix() {
		matLines = int64((s*s*4 + 63) / 64)
	}

	shards := shardCount(g.NumNodes, opts.Shards)
	workers := opts.Workers

	// Double buffer: cur is read, nxt written; the pair swaps each sweep.
	cur := g.Beliefs
	nxt := make([]float32, len(g.Beliefs))
	curIsBeliefs := true

	activeNodes := initialShardLists(g.NumNodes, shards)
	mark := make([]uint32, g.NumNodes)
	shardDelta := make([]float32, shards)
	workerOps := make([]bp.OpCounts, workers)
	k := kernel.NewSweep(g, o.Kernel)
	ks := make([]kernel.Scratch, workers)

	var res bp.Result
	if o.WorkQueue {
		res.Ops.QueuePushes += int64(g.NumNodes)
	}

	probe := o.Probe

	p := newPool(workers)
	defer p.close()
	rr := newRegionRunner(p, workers, probe != nil)
	var cursor atomic.Int64
	totalActive := g.NumNodes
	rebuild := newShardRebuilder(rr.run, &cursor, activeNodes, mark, g.NumNodes, shards, workerOps)
	var lastNodes, lastEdges int64

	// Compute region: workers claim shards; a shard first carries its
	// belief range into the next buffer, then recomputes its active nodes
	// against the current buffer (Jacobi) through the shared kernel. The
	// region body is built once — it reads cur/nxt through the enclosing
	// variables, which swap between sweeps — so steady-state sweeps
	// allocate nothing. Per-node accumulation order is the in-edge order
	// regardless of which worker owns the shard, so the kernel's numerics
	// stay bitwise identical for any worker count.
	computeBody := func(w int) {
		ops := &workerOps[w]
		sc := &ks[w]
		for {
			sh := int(cursor.Add(1)) - 1
			if sh >= shards {
				return
			}
			lo, hi := shardRange(sh, g.NumNodes, shards)
			copy(nxt[lo*s:hi*s], cur[lo*s:hi*s])
			ops.MemLoads += int64((hi - lo) * s)
			ops.MemStores += int64((hi - lo) * s)
			var d float32
			for _, v := range activeNodes[sh] {
				if g.Observed[v] {
					continue
				}
				ops.NodesProcessed++
				b := nxt[int(v)*s : int(v)*s+s]
				old := cur[int(v)*s : int(v)*s+s]
				deg := int64(k.NodeUpdate(sc, b, v, cur)) // damping applied in-kernel
				dv := graph.L1Diff(b, old)
				d += dv
				ops.EdgesProcessed += deg
				ops.RandomLoads += deg * (gatherLines + matLines)
				ops.MemLoads += deg*int64(s) + int64(2*s)
				ops.MatrixOps += deg * int64(s*s)
				ops.LogOps += deg*int64(s) + int64(s)
				ops.MemStores += int64(s)
				if o.WorkQueue && dv > o.QueueThreshold {
					// The node moved: its successors' inputs changed.
					olo, ohi := g.OutOffsets[v], g.OutOffsets[v+1]
					for _, e := range g.OutEdges[olo:ohi] {
						markOnce(mark, g.EdgeDst[e])
					}
					// A damped update moved the belief only (1−d) of the way
					// to the recombination, so the node itself still owes a
					// d·gap follow-up: it must stay active even when none of
					// its neighbours move back above the threshold, or it is
					// stranded short of the fixpoint.
					if o.Damping > 0 {
						markOnce(mark, v)
					}
				}
			}
			shardDelta[sh] = d
		}
	}

	for sweep := 0; sweep < o.MaxIterations; sweep++ {
		res.Iterations = sweep + 1
		res.Ops.Iterations++
		for sh := range shardDelta {
			shardDelta[sh] = 0
		}

		cursor.Store(0)
		rr.run(computeBody)
		res.Ops.SyncOps += int64(workers)
		k.EndSweep() // the workers are parked: commit the sweep's correction messages

		if o.WorkQueue {
			totalActive = rebuild()
			res.Ops.SyncOps += int64(workers)
		}

		cur, nxt = nxt, cur
		curIsBeliefs = !curIsBeliefs

		exhausted := o.WorkQueue && totalActive == 0
		if (sweep+1)%opts.CheckEvery == 0 || sweep+1 == o.MaxIterations || exhausted {
			var sum float32
			for _, d := range shardDelta {
				sum += d
			}
			res.FinalDelta = sum
			if o.RecordDeltas {
				res.Deltas = append(res.Deltas, sum)
			}
			// Check boundary: the workers are parked at the pool barrier,
			// so the per-worker counters are quiescent and safe to reduce.
			if probe != nil {
				var nodes, edges, fast, resc int64
				for w := range workerOps {
					nodes += workerOps[w].NodesProcessed
					edges += workerOps[w].EdgesProcessed
					fast += ks[w].Counters.FastPath
					resc += ks[w].Counters.Rescales
				}
				active := int64(-1)
				if o.WorkQueue {
					active = int64(totalActive)
				}
				probe.Emit(telemetry.Event{
					Kind:     telemetry.KindIteration,
					Engine:   engNode,
					Iter:     int32(sweep + 1),
					Delta:    sum,
					Updated:  nodes - lastNodes,
					Edges:    edges - lastEdges,
					Active:   active,
					Items:    int64(g.NumNodes),
					FastPath: fast,
					Rescales: resc,
				})
				lastNodes, lastEdges = nodes, edges
			}
			if sum < o.Threshold || exhausted {
				res.Converged = true
				break
			}
		}
	}

	if !curIsBeliefs {
		copy(g.Beliefs, cur)
	}
	for _, ops := range workerOps {
		res.Ops.Add(ops)
	}
	for w := range ks {
		res.Ops.KernelFastPath += ks[w].Counters.FastPath
		res.Ops.RescaleOps += ks[w].Counters.Rescales
	}
	rr.emitWorkers(probe, engNode)
	bp.EmitRunEnd(probe, engNode, &res)
	return res
}

// RunEdge executes loopy BP with per-edge processing on the persistent
// pool. Edges sharing a destination combine into its log-domain
// accumulator with an atomic CAS add; nodes then fold their accumulator
// with their prior in a second region. Scheduling is nondeterministic, so
// the result matches the sequential oracle within the convergence
// tolerance rather than bitwise.
func RunEdge(g *graph.Graph, opts Options) bp.Result {
	opts = opts.withDefaults()
	o := opts.Options
	bp.EmitRunStart(o.Probe, engEdge, int64(g.NumEdges), o.Threshold)
	s := g.States
	matLines := int64(0)
	if !g.SharedMatrix() {
		matLines = int64((s*s*4 + 63) / 64)
	}

	eShards := shardCount(g.NumEdges, opts.Shards)
	nShards := shardCount(g.NumNodes, 0)
	workers := opts.Workers

	prev := append([]float32(nil), g.Beliefs...)

	// Log-domain accumulators stored as raw float bits for the CAS adds,
	// primed with the initial messages. lmsg caches each message's log
	// alongside it so the edge region evaluates one Logf per component
	// instead of two; each edge is owned by exactly one worker per sweep,
	// so the cache needs no synchronization beyond the pool barrier.
	accBits := make([]uint32, g.NumNodes*s)
	lmsg := make([]float32, g.NumEdges*s)
	for e := 0; e < g.NumEdges; e++ {
		dst := int(g.EdgeDst[e])
		m := g.Message(int32(e))
		for j := 0; j < s; j++ {
			l := bp.Logf(m[j])
			lmsg[e*s+j] = l
			f := math.Float32frombits(accBits[dst*s+j]) + l
			accBits[dst*s+j] = math.Float32bits(f)
		}
	}

	activeEdges := initialShardLists(g.NumEdges, eShards)
	mark := make([]uint32, g.NumEdges)
	shardDelta := make([]float32, nShards)
	workerOps := make([]bp.OpCounts, workers)
	k := kernel.New(g, o.Kernel)
	scratch := make([][]float32, workers)
	for w := range scratch {
		scratch[w] = make([]float32, 2*s)
	}
	kss := make([]kernel.Scratch, workers)

	var res bp.Result
	if o.WorkQueue {
		res.Ops.QueuePushes += int64(g.NumEdges)
	}

	probe := o.Probe

	p := newPool(workers)
	defer p.close()
	rr := newRegionRunner(p, workers, probe != nil)
	var cursor atomic.Int64
	totalActive := g.NumEdges
	rebuild := newShardRebuilder(rr.run, &cursor, activeEdges, mark, g.NumEdges, eShards, workerOps)
	var lastNodes, lastEdges int64

	// Edge region: recompute active messages through the kernel and CAS
	// the log-domain change into the destination accumulators. LogOps
	// still counts the abstract algorithm's two evaluations per component
	// (new and old message) even though the lmsg cache halves the actual
	// calls, so perfmodel pricing stays comparable.
	edgeBody := func(w int) {
		ops := &workerOps[w]
		msg := scratch[w][:s]
		ks := &kss[w]
		for {
			sh := int(cursor.Add(1)) - 1
			if sh >= eShards {
				return
			}
			for _, e := range activeEdges[sh] {
				ops.EdgesProcessed++
				src, dst := g.EdgeSrc[e], g.EdgeDst[e]
				parent := prev[int(src)*s : int(src)*s+s]
				k.Message(ks, msg, e, parent)
				old := g.Message(e)
				base := int(dst) * s
				lm := lmsg[int(e)*s : int(e)*s+s]
				for j := 0; j < s; j++ {
					l := bp.Logf(msg[j])
					ompbp.AtomicAddFloat32(accBits, base+j, l-lm[j])
					lm[j] = l
					old[j] = msg[j]
				}
				ops.AtomicOps += int64(s)
				ops.MemLoads += int64(2 * s)
				ops.RandomLoads += matLines
				ops.MemStores += int64(2 * s)
				ops.MatrixOps += int64(s * s)
				ops.LogOps += int64(2 * s)
			}
		}
	}

	// Combine region: every node folds its accumulator with its prior,
	// refreshes the prev snapshot for the next sweep, and marks the
	// out-edges of nodes that moved.
	combineBody := func(w int) {
		ops := &workerOps[w]
		acc := scratch[w][s:]
		for {
			sh := int(cursor.Add(1)) - 1
			if sh >= nShards {
				return
			}
			lo, hi := shardRange(sh, g.NumNodes, nShards)
			var d float32
			for v := lo; v < hi; v++ {
				if g.Observed[v] {
					continue
				}
				ops.NodesProcessed++
				for j := 0; j < s; j++ {
					// The edge region's CAS stores are ordered before
					// this read by the pool barrier.
					acc[j] = math.Float32frombits(accBits[v*s+j])
				}
				b := g.Beliefs[v*s : v*s+s]
				old := prev[v*s : v*s+s]
				bp.ExpNormalize(b, g.Priors[v*s:v*s+s], acc)
				bp.Blend(b, old, o.Damping)
				dv := graph.L1Diff(b, old)
				d += dv
				copy(old, b)
				ops.LogOps += int64(s)
				ops.MemLoads += int64(3 * s)
				ops.MemStores += int64(2 * s)
				if o.WorkQueue && dv > o.QueueThreshold {
					olo, ohi := g.OutOffsets[v], g.OutOffsets[v+1]
					for _, e := range g.OutEdges[olo:ohi] {
						markOnce(mark, e)
					}
				}
			}
			shardDelta[sh] = d
		}
	}

	for sweep := 0; sweep < o.MaxIterations; sweep++ {
		res.Iterations = sweep + 1
		res.Ops.Iterations++
		for sh := range shardDelta {
			shardDelta[sh] = 0
		}

		cursor.Store(0)
		rr.run(edgeBody)
		res.Ops.SyncOps += int64(workers)

		cursor.Store(0)
		rr.run(combineBody)
		res.Ops.SyncOps += int64(workers)

		if o.WorkQueue {
			totalActive = rebuild()
			res.Ops.SyncOps += int64(workers)
		}

		exhausted := o.WorkQueue && totalActive == 0
		if (sweep+1)%opts.CheckEvery == 0 || sweep+1 == o.MaxIterations || exhausted {
			var sum float32
			for _, d := range shardDelta {
				sum += d
			}
			res.FinalDelta = sum
			if o.RecordDeltas {
				res.Deltas = append(res.Deltas, sum)
			}
			if probe != nil {
				var nodes, edges int64
				for w := range workerOps {
					nodes += workerOps[w].NodesProcessed
					edges += workerOps[w].EdgesProcessed
				}
				active := int64(-1)
				if o.WorkQueue {
					active = int64(totalActive)
				}
				probe.Emit(telemetry.Event{
					Kind:    telemetry.KindIteration,
					Engine:  engEdge,
					Iter:    int32(sweep + 1),
					Delta:   sum,
					Updated: nodes - lastNodes,
					Edges:   edges - lastEdges,
					Active:  active,
					Items:   int64(g.NumEdges),
				})
				lastNodes, lastEdges = nodes, edges
			}
			if sum < o.Threshold || exhausted {
				res.Converged = true
				break
			}
		}
	}

	for _, ops := range workerOps {
		res.Ops.Add(ops)
	}
	rr.emitWorkers(probe, engEdge)
	bp.EmitRunEnd(probe, engEdge, &res)
	return res
}
