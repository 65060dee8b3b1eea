// Package relaxbp is the relaxed-priority residual BP engine: the
// scheduling discipline of the sequential residual engine
// (internal/bp.RunResidual, after Gonzalez et al.'s Residual Splash)
// made concurrent the way the scheduling literature prescribes.
// Van der Merwe, Joseph & Pingali ("Message Scheduling for Performant,
// Many-Core Belief Propagation") show residual ordering needs far fewer
// message updates than synchronous sweeps; Aksenov, Alistarh & Korhonen
// ("Relaxed Scheduling for Scalable Belief Propagation") show an exact
// concurrent priority queue serializes those updates, and that a relaxed
// MultiQueue — many sequential heaps, pop from the better of two sampled
// tops — keeps nearly the same update count while scaling past the
// bottleneck.
//
// The engine combines the repo's two prior pieces:
//
//   - the persistent worker team of internal/poolbp (spawned once per
//     run, no per-region fork/join), and
//   - the residual discipline of internal/bp's sequential engine.
//
// Work lives in a sharded MultiQueue of c·P sequential heaps. Each
// worker samples two shards and pops from the one with the larger top
// residual. Instead of decrease-key — which needs a global index and
// reintroduces the serialization the MultiQueue removed — every node
// carries an epoch counter: a push bumps the epoch, and a popped entry
// whose recorded epoch is no longer current is dropped as stale
// (Ops.StaleDrops), both at the pop and again under the node's writer
// lock before the store, so a candidate computed while a newer push
// arrived never overwrites the newer entry's update. A popped current
// entry recomputes its node's true residual against the live beliefs;
// if that has already fallen below the threshold the pop was wasted
// work (Ops.WastedUpdates), the price of ordering by estimate. The
// sequential engine schedules by the same estimates; only its queue, an
// exact heap with plain stores, differs.
//
// Beliefs are shared mutably across workers, so every element is read
// and written through atomic float32 bits, and a per-node spinlock
// serializes writers so a finished run always leaves each node holding
// one consistent normalized candidate. Readers deliberately do not take
// the lock: a torn read mixes two normalized candidates and only
// perturbs a residual estimate, which the relaxed model already
// tolerates — the update that acted on it is recomputed or superseded.
//
// Scheduling is nondeterministic for Workers > 1 (beliefs match the
// sequential oracle within the convergence tolerance, not bitwise); with
// Workers = 1 and a fixed Seed the entire run is deterministic.
package relaxbp

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"

	"credo/internal/bp"
	"credo/internal/graph"
	"credo/internal/kernel"
	"credo/internal/poolbp"
	"credo/internal/telemetry"
)

// engineName is how this engine identifies itself in telemetry events.
const engineName = "relax"

// DefaultQueueFactor is c in the MultiQueue's c·P shard count. Two is
// the standard choice: enough slack to keep sampled shards distinct,
// little enough that the popped residual stays near the true maximum.
const DefaultQueueFactor = 2

// maxResidual is the largest possible L1 distance between two
// distributions — the priority that guarantees a node's first pop.
const maxResidual = float32(2)

// Options configures a relaxed residual run.
type Options struct {
	bp.Options

	// Workers is the size of the persistent team. Zero means
	// runtime.NumCPU().
	Workers int

	// QueueFactor scales the MultiQueue: QueueFactor·Workers shards.
	// Zero means DefaultQueueFactor.
	QueueFactor int

	// Seed drives the shard-sampling RNGs. Runs with Workers = 1 and
	// equal seeds apply identical update sequences. Zero means 1.
	Seed int64

	// Trace, when non-nil and Workers == 1, receives the node id of
	// every applied update in order — the hook the seeded-determinism
	// tests record sequences through. Ignored for Workers > 1.
	Trace *[]int32
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.QueueFactor <= 0 {
		o.QueueFactor = DefaultQueueFactor
	}
	if o.Seed == 0 {
		o.Seed = 1
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

// Run executes relaxed-priority residual BP on the persistent worker
// team. Result.Iterations reports applied updates divided by the node
// count (sweep-equivalents, rounded up) so reports stay comparable with
// the sweep engines, exactly like the sequential residual engine.
func Run(g *graph.Graph, opts Options) bp.Result {
	return RunFrom(g, opts, nil)
}

// RunFrom executes relaxed residual BP resuming from the graph's current
// beliefs: only the given seed nodes enter the initial queue population
// (at the maximum residual, so their first pop computes the true one),
// and the relaxed schedule spreads from there exactly as in a cold run.
// It is the warm-start entry point of the serving layer — see
// bp.RunResidualFrom for the discipline and its guarantees.
//
// A nil seeds slice means every node — identical to Run. An empty
// non-nil slice is a valid warm start with no perturbation: the workers
// find an empty queue and the run returns converged with zero updates.
// Out-of-range, observed and input-free seed nodes are skipped;
// duplicate seeds enqueue superseded entries that the epoch check drops
// as stale.
func RunFrom(g *graph.Graph, opts Options, seeds []int32) bp.Result {
	opts = opts.withDefaults()
	bp.EmitRunStart(opts.Probe, engineName, int64(g.NumNodes), opts.Threshold)
	s := g.States
	workers := opts.Workers
	gatherLines := int64((s*4 + 63) / 64)
	matLines := int64(0)
	if !g.SharedMatrix() {
		matLines = int64((s*s*4 + 63) / 64)
	}

	// Shared mutable state: belief bits (atomic element access), the
	// per-node push epoch, and the per-node writer spinlock.
	bel := make([]uint32, len(g.Beliefs))
	for i, b := range g.Beliefs {
		bel[i] = math.Float32bits(b)
	}
	seq := make([]uint32, g.NumNodes)
	writing := make([]uint32, g.NumNodes)

	mq := newMultiQueue(opts.QueueFactor * workers)

	var res bp.Result

	// live counts entries in flight: queued (stale included) plus popped
	// but not yet classified. Workers exit when it reaches zero — every
	// pending update has been applied, wasted, or superseded.
	var live atomic.Int64
	var updates atomic.Int64
	var capped atomic.Bool
	maxUpdates := int64(opts.MaxIterations) * int64(g.NumNodes)

	// Live scheduler counters, shared across workers. These atomics are
	// the single source of truth for the relaxation cost: workers account
	// into them directly, the probe's batch events read them mid-flight,
	// and the final OpCounts is populated from the same values — there is
	// no per-worker copy for the reported totals to drift from.
	var staleDrops, wastedUpdates, contention atomic.Int64

	probe := opts.Probe
	batch := int64(g.NumNodes)

	// Initial population, serial and seed-deterministic: every
	// unobserved node with inputs enters at the maximum residual so its
	// first pop computes its true one.
	initRng := rand.New(rand.NewSource(opts.Seed))
	seedOne := func(v int32) {
		if v < 0 || int(v) >= g.NumNodes || g.Observed[v] || g.InDegree(v) == 0 {
			return
		}
		seq[v]++
		mq.push(initRng, entry{node: v, seq: seq[v], prio: maxResidual}, &contention)
		res.Ops.QueuePushes++
		live.Add(1)
	}
	if seeds == nil {
		for v := int32(0); v < int32(g.NumNodes); v++ {
			seedOne(v)
		}
	} else {
		for _, v := range seeds {
			seedOne(v)
		}
	}

	workerOps := make([]bp.OpCounts, workers)
	lastApplied := make([]float32, workers) // residual of the worker's last applied update
	maxPending := make([]float32, workers)  // largest sub-threshold residual seen
	k := kernel.New(g, opts.Kernel)
	kss := make([]kernel.Scratch, workers)
	scratch := make([][]float32, workers)
	for w := range scratch {
		scratch[w] = make([]float32, 3*s)
	}

	team := poolbp.NewTeam(workers)
	defer team.Close()

	team.Run(func(w int) {
		ops := &workerOps[w]
		ks := &kss[w]
		buf := scratch[w]
		parent, cand, cur := buf[:s], buf[s:2*s], buf[2*s:]
		rng := rand.New(rand.NewSource(opts.Seed + int64(w)*0x9E3779B9))

		loadBelief := func(dst []float32, v int32) {
			base := int(v) * s
			for j := 0; j < s; j++ {
				dst[j] = math.Float32frombits(atomic.LoadUint32(&bel[base+j]))
			}
		}

		// computeCandidate fills cand with the belief v would adopt
		// against the live (possibly mid-update) neighbour beliefs. The
		// parent snapshot goes through an atomic gather into a private
		// buffer, so the kernel itself never touches shared state.
		computeCandidate := func(v int32) {
			lo, hi := g.InOffsets[v], g.InOffsets[v+1]
			k.Begin(ks, g.Prior(v), int(hi-lo))
			for _, e := range g.InEdges[lo:hi] {
				loadBelief(parent, g.EdgeSrc[e])
				k.Accumulate(ks, e, parent)
				ops.EdgesProcessed++
				ops.MatrixOps += int64(s * s)
				ops.LogOps += int64(s)
				ops.RandomLoads += gatherLines + matLines
				ops.MemLoads += int64(s)
			}
			k.Finish(ks, cand)
			ops.LogOps += int64(s)
		}

		for {
			if capped.Load() {
				return
			}
			e, ok := mq.pop(rng, &contention)
			if !ok {
				if live.Load() == 0 {
					return
				}
				runtime.Gosched()
				continue
			}
			if atomic.LoadUint32(&seq[e.node]) != e.seq {
				// A newer push superseded this entry; the current one is
				// still queued and will carry the node's update.
				staleDrops.Add(1)
				live.Add(-1)
				continue
			}

			v := e.node
			computeCandidate(v)

			// Serialize writers on v so the stored belief is always one
			// consistent normalized candidate.
			for !atomic.CompareAndSwapUint32(&writing[v], 0, 1) {
				contention.Add(1)
				runtime.Gosched()
			}
			if atomic.LoadUint32(&seq[v]) != e.seq {
				// A push superseded the entry while its candidate was
				// computed, and a worker holding the newer entry may
				// already have stored a fresher belief. Storing this
				// older candidate over it would lose that update, since
				// the newer entry is consumed: drop it as stale instead.
				atomic.StoreUint32(&writing[v], 0)
				staleDrops.Add(1)
				live.Add(-1)
				continue
			}
			loadBelief(cur, v)
			// The residual is the UNDAMPED pending move: damping scales
			// every applied step, and measuring the scaled step would
			// drain the queue while the node still wants to move (the
			// fixpoint criterion must not depend on the step size). The
			// blend below applies only to the stored belief. (The kernel
			// can't damp here: the combine composes
			// Begin/Accumulate/Finish, not NodeUpdate.)
			r := graph.L1Diff(cand, cur)
			if r <= opts.QueueThreshold {
				atomic.StoreUint32(&writing[v], 0)
				// The estimate that scheduled this pop overstated the
				// node's movement — already converged, nothing to apply.
				wastedUpdates.Add(1)
				if r > maxPending[w] {
					maxPending[w] = r
				}
				live.Add(-1)
				continue
			}
			bp.Blend(cand, cur, opts.Damping)
			base := int(v) * s
			for j := 0; j < s; j++ {
				atomic.StoreUint32(&bel[base+j], math.Float32bits(cand[j]))
			}
			atomic.StoreUint32(&writing[v], 0)
			ops.NodesProcessed++
			ops.MemStores += int64(s)
			ops.MemLoads += int64(s)
			lastApplied[w] = r
			if opts.Trace != nil && workers == 1 {
				*opts.Trace = append(*opts.Trace, v)
			}
			n := updates.Add(1)
			// Sweep-equivalent batch boundary: every NumNodes applied
			// updates one worker reports the live scheduler state — queue
			// depth, in-flight count, and the relaxation-cost counters the
			// probes share with the final OpCounts.
			if probe != nil && n%batch == 0 {
				d := mq.maxTop()
				if d < 0 {
					d = 0
				}
				probe.Emit(telemetry.Event{
					Kind:       telemetry.KindIteration,
					Engine:     engineName,
					Iter:       int32(n / batch),
					Delta:      d,
					Updated:    batch,
					Active:     live.Load(),
					Items:      int64(g.NumNodes),
					StaleDrops: staleDrops.Load(),
					Wasted:     wastedUpdates.Load(),
					Contention: contention.Load(),
				})
			}
			if n >= maxUpdates {
				capped.Store(true)
				return
			}

			// Push every successor at the applied residual: the sender's
			// movement is the estimate of how far the receiver may move,
			// and the receiver's pop recomputes the truth, as in the
			// sequential engine. Recomputing each successor's true
			// residual here would multiply the per-update message work by
			// the out-degree.
			lo, hi := g.OutOffsets[v], g.OutOffsets[v+1]
			for _, oe := range g.OutEdges[lo:hi] {
				dst := g.EdgeDst[oe]
				if g.Observed[dst] {
					continue
				}
				ns := atomic.AddUint32(&seq[dst], 1)
				live.Add(1)
				mq.push(rng, entry{node: dst, seq: ns, prio: r}, &contention)
				ops.QueuePushes++
			}
			// A damped apply moves the belief only (1−d) of the way, so
			// d·r of the node's own residual is still pending; re-queue
			// the node itself or that remainder strands once its
			// neighbors settle (convergence must mean small UNDAMPED
			// residuals everywhere, regardless of step size).
			if rem := opts.Damping * r; rem > opts.QueueThreshold {
				ns := atomic.AddUint32(&seq[v], 1)
				live.Add(1)
				mq.push(rng, entry{node: v, seq: ns, prio: rem}, &contention)
				ops.QueuePushes++
			}
			live.Add(-1)
		}
	})
	res.Ops.SyncOps += int64(workers)

	// Publish the final beliefs. The team barrier ordered all worker
	// stores before this read.
	for i := range g.Beliefs {
		g.Beliefs[i] = math.Float32frombits(bel[i])
	}

	applied := updates.Load()
	res.Converged = !capped.Load()
	for w := range kss {
		res.Ops.KernelFastPath += kss[w].Counters.FastPath
		res.Ops.RescaleOps += kss[w].Counters.Rescales
	}
	for w, ops := range workerOps {
		res.Ops.Add(ops)
		if res.Converged {
			if maxPending[w] > res.FinalDelta {
				res.FinalDelta = maxPending[w]
			}
		} else if lastApplied[w] > res.FinalDelta {
			res.FinalDelta = lastApplied[w]
		}
	}
	// The relaxation-cost counters come straight from the shared live
	// atomics the workers accounted into (and the probes observed) — the
	// per-worker OpCounts no longer carry them, so there is exactly one
	// set of numbers.
	res.Ops.StaleDrops = staleDrops.Load()
	res.Ops.WastedUpdates = wastedUpdates.Load()
	res.Ops.QueueContention = contention.Load()
	res.Iterations = int((applied + int64(g.NumNodes) - 1) / int64(g.NumNodes))
	if res.Iterations == 0 && applied > 0 {
		res.Iterations = 1
	}
	res.Ops.Iterations = int64(res.Iterations)
	bp.EmitRunEnd(probe, engineName, &res)
	return res
}
