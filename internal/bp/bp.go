// Package bp implements belief propagation over graph.Graph in the two
// processing paradigms of the paper — per-node and per-edge loopy BP
// (Algorithm 1) — plus the classical non-loopy two-pass algorithm used as
// the §2.1.1 baseline and an exact sum-product engine for acyclic networks.
//
// Message convention (Equation 2): the message along directed edge e=(u,v)
// is m_e[j] = Σ_i b_u[i]·J_e[i,j], normalized. A node's belief is its prior
// multiplied by all incoming messages and re-normalized (marginalized).
// Message math runs through the shared kernel layer (package kernel): by
// default products are accumulated in linear space with periodic
// max-rescaling, falling back to log space only when a node's in-degree or
// running magnitude crosses the underflow guard, so that high-degree nodes
// (the power-law hubs of the social benchmarks) still cannot underflow
// float32. Options.Kernel selects kernel.LogSpace to reproduce the
// historical always-log path bit-for-bit.
package bp

import (
	"credo/internal/graph"
	"credo/internal/kernel"
	"credo/internal/telemetry"
)

// Default parameters from the paper's evaluation (§4): convergence within
// 0.001, cut off at 200 iterations.
const (
	DefaultThreshold     = 0.001
	DefaultMaxIterations = 200
)

// Options configures a propagation run.
type Options struct {
	// Threshold is the global convergence bound: the run stops once the
	// sum over nodes of the L1 belief change in one iteration falls below
	// it. Zero means DefaultThreshold.
	Threshold float32

	// MaxIterations caps the number of iterations. Zero means
	// DefaultMaxIterations.
	MaxIterations int

	// WorkQueue enables the unconverged-element queues of paper §3.5:
	// after every iteration only nodes (or edges) whose last change
	// exceeded QueueThreshold are reprocessed.
	WorkQueue bool

	// QueueThreshold is the per-element convergence bound used by the
	// work queues: an element whose last change fell below it drops out
	// of the queue. Zero means Threshold — the paper prunes elements at
	// the same 0.001 bound it checks globally, which is what lets queue
	// runs finish in a handful of iterations while the global sum over a
	// large graph would keep a full sweep running toward the cap (§3.5,
	// §4.2).
	QueueThreshold float32

	// RecordDeltas makes the engines append each iteration's global delta
	// to Result.Deltas — the data behind convergence curves.
	RecordDeltas bool

	// Damping blends each new belief with the previous one:
	// b ← (1−Damping)·b_new + Damping·b_old. Zero disables it. Damping is
	// the standard stabilizer for loopy BP on graphs where synchronous
	// updates oscillate; the ablation benchmark measures its cost. Setting
	// it implies Variant=VariantDamped (see ResolveVariant).
	Damping float32

	// Variant selects the message-update rule: vanilla (the default),
	// damped, or circular (Circular-BP loop correction through the kernel
	// layer's per-edge correction state). VariantDamped with Damping left
	// zero uses kernel.DefaultDamping; VariantCircular with Kernel.Alpha
	// left zero uses kernel.DefaultAlpha. See kernel.Variant.
	Variant kernel.Variant

	// Kernel selects the message-kernel implementation and its numerical
	// policy (see package kernel). The zero value is the width-specialized
	// linear-space fast path; kernel.LogSpace reproduces the historical
	// log-space scalar path bit-for-bit.
	Kernel kernel.Config

	// Probe, when non-nil, receives telemetry events at iteration/batch
	// boundaries: per-iteration residual norms, beliefs-updated counts,
	// frontier/queue occupancy and engine-specific scheduler counters
	// (see package telemetry). Every engine — including the parallel and
	// device ones, whose options embed this struct — reports into the
	// same probe, and it is their only reporting path: a request trace
	// (telemetry.Trace) in the chain derives the run's span from the
	// run_start/run_end pair, and telemetry.ExecTrace forwards the events
	// to the Go execution tracer. Nil (the default) keeps every hot path
	// untouched: the disabled path is locked at 0 allocs/run and within
	// benchmark noise of the uninstrumented engines.
	Probe telemetry.Probe
}

func (o Options) withDefaults(numNodes int) Options {
	if o.Threshold == 0 {
		o.Threshold = DefaultThreshold
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = DefaultMaxIterations
	}
	if o.QueueThreshold == 0 {
		o.QueueThreshold = o.Threshold
	}
	return o.ResolveVariant()
}

// ResolveVariant normalizes the (Variant, Damping, Kernel.Alpha) triple so
// every engine sees one consistent picture:
//
//   - VariantDamped with Damping unset takes kernel.DefaultDamping;
//     conversely a positive Damping alone implies VariantDamped.
//   - VariantCircular with Kernel.Alpha unset takes kernel.DefaultAlpha;
//     a positive Alpha alone implies VariantCircular.
//   - Kernel.Damping always mirrors Damping, so engines driving the
//     kernel's NodeUpdate path damp inside the kernel while engines with
//     their own combine stage read Damping directly — never both.
//
// Every engine's withDefaults calls it (the parallel engines' option
// structs embed this one), so explicit calls are only needed when passing
// a Config straight to kernel.New.
func (o Options) ResolveVariant() Options {
	switch o.Variant {
	case kernel.VariantDamped:
		if o.Damping <= 0 {
			o.Damping = kernel.DefaultDamping
		}
	case kernel.VariantCircular:
		if o.Kernel.Alpha <= 0 {
			o.Kernel.Alpha = kernel.DefaultAlpha
		}
	default:
		if o.Kernel.Alpha > 0 {
			o.Variant = kernel.VariantCircular
		} else if o.Damping > 0 {
			o.Variant = kernel.VariantDamped
		}
	}
	o.Kernel.Damping = o.Damping
	return o
}

// OpCounts records the abstract operations performed by a run. The
// perfmodel package prices these counts under a CPU or GPU architecture
// profile to regenerate the paper's timing figures.
type OpCounts struct {
	Iterations     int64 // propagation iterations executed
	NodesProcessed int64 // node belief recombinations
	EdgesProcessed int64 // edge message computations
	MemLoads       int64 // float32 loads from belief/message arrays
	MemStores      int64 // float32 stores to belief/message arrays
	MatrixOps      int64 // multiply-accumulate ops through joint matrices
	LogOps         int64 // log/exp evaluations in the combine stage
	AtomicOps      int64 // atomic accumulator updates (per float)
	QueuePushes    int64 // work-queue enqueue operations
	RandomLoads    int64 // random-order parent-state loads (node paradigm)
	SyncOps        int64 // barrier crossings (one per worker per parallel region)

	// Relaxed-scheduling counters (the relaxbp engine). Relaxed priority
	// order trades exactness for scalability; these count what that trade
	// costs: entries superseded before they were popped, pops whose
	// recomputed residual had already fallen below the threshold (work the
	// priority estimate wasted), and failed lock acquisitions on the
	// sharded priority queues.
	StaleDrops      int64 // queue entries dropped because a newer push superseded them
	WastedUpdates   int64 // pops recomputed to a sub-threshold residual (nothing applied)
	QueueContention int64 // failed TryLock acquisitions on the relaxed multiqueue

	// Kernel-layer counters. These are diagnostic: they report what the
	// selected message kernel actually did, while the counters above keep
	// modelling the abstract algorithm (LogOps counts the combine stage's
	// log/exp evaluations whether or not the linear fast path elided them)
	// so that perfmodel pricing stays comparable across kernels and with
	// the pre-kernel engines.
	KernelFastPath int64 // in-edge folds taken through the linear fused fast path
	RescaleOps     int64 // max-rescales of linear running products
}

// Add accumulates other into c.
func (c *OpCounts) Add(other OpCounts) {
	c.Iterations += other.Iterations
	c.NodesProcessed += other.NodesProcessed
	c.EdgesProcessed += other.EdgesProcessed
	c.MemLoads += other.MemLoads
	c.MemStores += other.MemStores
	c.MatrixOps += other.MatrixOps
	c.LogOps += other.LogOps
	c.AtomicOps += other.AtomicOps
	c.QueuePushes += other.QueuePushes
	c.RandomLoads += other.RandomLoads
	c.SyncOps += other.SyncOps
	c.StaleDrops += other.StaleDrops
	c.WastedUpdates += other.WastedUpdates
	c.QueueContention += other.QueueContention
	c.KernelFastPath += other.KernelFastPath
	c.RescaleOps += other.RescaleOps
}

// addKernelCounters folds a scratch's kernel counters into the counts.
func (c *OpCounts) addKernelCounters(kc kernel.Counters) {
	c.KernelFastPath += kc.FastPath
	c.RescaleOps += kc.Rescales
}

// Result reports the outcome of a propagation run.
type Result struct {
	// Iterations is the number of iterations executed.
	Iterations int
	// Converged reports whether the run stopped because the global delta
	// fell below the threshold (as opposed to hitting MaxIterations).
	Converged bool
	// FinalDelta is the global belief delta of the last iteration.
	FinalDelta float32
	// Deltas holds every iteration's global delta when
	// Options.RecordDeltas is set.
	Deltas []float32
	// Ops are the abstract operation counts of the run.
	Ops OpCounts
	// Moved lists the nodes a seeded RunResidualFrom applied an update
	// to, in application order; a node may appear more than once. A
	// seeded run that applies nothing reports an empty, non-nil slice.
	// Nil means the run did not track it (cold starts, seeded runs past
	// NumNodes updates, and every other engine): assume every belief row
	// moved.
	Moved []int32
}

// logEps keeps log() finite: probabilities are clamped to at least logEps
// before entering log space. exp(log(1e-30)) is still exactly zero mass
// after normalization at float32 precision. It equals kernel.LogEps so the
// linear fast path's clamp and the log accumulators agree.
const logEps = kernel.LogEps

// Logf is a float32 natural logarithm clamped at logEps, shared by every
// engine so that log-domain accumulators agree bit-for-bit across
// implementations. The implementation lives in the kernel package; this
// wrapper keeps the historical bp API.
func Logf(x float32) float32 { return kernel.Logf(x) }

// ExpNormalize writes normalize(prior · exp(acc)) into dst using the
// max-subtraction trick; dst, prior and acc must share one length.
// Entirely zero rows degrade to uniform. It is the log-space combine stage
// shared by every engine; the implementation lives in the kernel package.
func ExpNormalize(dst, prior, acc []float32) { kernel.ExpNormalize(dst, prior, acc) }

// Blend applies damping in place: b ← (1−d)·b + d·old. Both inputs are
// distributions, so the result needs no renormalization.
func Blend(b, old []float32, d float32) {
	if d <= 0 {
		return
	}
	for j := range b {
		b[j] = (1-d)*b[j] + d*old[j]
	}
}

// ComputeMessage fills msg with the normalized propagation of src through
// m: msg[j] = Σ_i src[i]·m[i,j], normalized — the scalar reference form of
// the kernel layer's Message, kept for oracles and tests.
func ComputeMessage(msg, src []float32, m *graph.JointMatrix) {
	m.PropagateInto(msg, src)
	graph.Normalize(msg)
}
