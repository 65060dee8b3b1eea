// Package telemetry is the engine-agnostic instrumentation layer: every
// engine reports per-iteration convergence state, work rates and
// scheduler health through the Probe interface, its only event path,
// and pluggable sinks turn that stream into whatever the operator needs
// — an in-memory ring for post-run reports, a JSONL event stream for
// offline analysis, a Prometheus-style text exposition with expvar and
// pprof for live serving, terminal sparkline reports rendered through
// internal/viz, request-scoped span traces (Trace, which derives each
// engine's run span from its run_start/run_end events) and Go
// execution-tracer annotations (ExecTrace).
//
// The layer is built around one contract: observability is free when it
// is off. Options.Probe is a nil interface by default; every engine
// guards its emission sites with a nil check, the Event payload is a
// flat value struct that never escapes on that path, and the disabled
// path is locked at 0 allocs/run by the allocation tests and within
// noise of the uninstrumented engines by BenchmarkProbeOverhead. When a
// probe is attached, events fire only at iteration/batch boundaries —
// never per node or per edge — so even the enabled path costs a few
// interface calls per sweep.
//
// The design follows the diagnosis workflow of the scheduling
// literature (Van der Merwe et al.; Aksenov et al.): per-iteration
// residual/update trajectories are the signal that exposes scheduler
// pathologies, so the Event model carries exactly those series — global
// residual norms, beliefs-updated counts, frontier/queue occupancy,
// relaxed-queue stale/wasted traffic, per-worker utilization and kernel
// fast-path ratios.
package telemetry

// Kind discriminates probe events.
type Kind uint8

const (
	// KindRunStart opens a run: Engine, Items and Threshold are set.
	KindRunStart Kind = iota
	// KindIteration is one iteration/batch boundary: Iter, Delta,
	// Updated, Edges, Active and the cumulative counter groups are set.
	KindIteration
	// KindRunEnd closes a run: Iter holds the final iteration count,
	// Delta the final residual and Converged the outcome.
	KindRunEnd
	// KindWorker reports one worker's utilization for the whole run:
	// Worker, BusyNs and WallNs are set (sync wait = WallNs - BusyNs).
	KindWorker
	// KindIngest reports graph-loading progress from the parallel chunked
	// ingest path (internal/mtxbp). Engine is the phase ("ingest.nodes",
	// "ingest.edges"); a per-chunk event has Worker >= 0 (the chunk
	// index) and carries that chunk's increments — Updated data lines
	// parsed, Edges bytes consumed, BusyNs parse time; the phase summary
	// has Worker == -1 and carries Iter chunk count, Items total region
	// bytes, BusyNs summed parse time, WallNs the phase wall clock and
	// Active the wall clock of the phase's fan-out sub-spans alone
	// (chunk parse plus block install — the parallelizable span).
	KindIngest
	// KindServe reports one serving-layer outcome (internal/serve).
	// Engine discriminates the path: "serve.query" is a completed query
	// (Warm marks a warm start, Converged the outcome, Updated the belief
	// updates applied, BusyNs the query wall clock, Active the admission
	// depth — in-flight plus waiting — observed at completion, Items the
	// admission capacity); "serve.shed" is a request rejected by
	// admission control (Active/Items as above); "serve.load" is a graph
	// loaded into the registry (Items its node count, BusyNs load wall).
	KindServe
)

// String returns the JSONL name of the kind.
func (k Kind) String() string {
	switch k {
	case KindRunStart:
		return "run_start"
	case KindIteration:
		return "iteration"
	case KindRunEnd:
		return "run_end"
	case KindWorker:
		return "worker"
	case KindIngest:
		return "ingest"
	case KindServe:
		return "serve"
	}
	return "unknown"
}

// Event is one probe emission. It is a flat value struct — no pointers,
// no maps — so that building and passing one on the disabled path costs
// nothing and on the enabled path never allocates. Fields outside an
// event kind's set are zero.
type Event struct {
	// Kind discriminates which fields are meaningful.
	Kind Kind
	// Engine names the emitting engine ("bp.node", "pool.edge",
	// "relax", "cuda.node", ...). Always a compile-time constant in the
	// engines, so carrying it allocates nothing.
	Engine string

	// Iter is the 1-based iteration (sweep engines), convergence-check
	// index (poolbp), or sweep-equivalent batch number (residual
	// engines).
	Iter int32
	// Worker is the worker id of a KindWorker event, -1 otherwise.
	Worker int32

	// Delta is the global residual norm at this boundary: the sum over
	// nodes of the L1 belief change (sweep engines) or the largest
	// pending residual (residual engines).
	Delta float32
	// Threshold is the run's convergence bound (KindRunStart).
	Threshold float32

	// Updated counts node belief updates. In a KindIteration event it is
	// the increment since the previous boundary (so sinks may sum it); in
	// a KindRunEnd event it is the run's cumulative total.
	Updated int64
	// Edges counts edge message computations on the same basis as
	// Updated.
	Edges int64
	// Active is the frontier/queue occupancy after the boundary: work
	// queue length, residual heap size, or the relaxed engine's
	// in-flight entry count. -1 when the engine runs without a queue.
	Active int64
	// Items is the paradigm's total item count (nodes or edges), the
	// denominator that turns Active into a convergence fraction.
	Items int64

	// Converged reports a KindRunEnd outcome.
	Converged bool

	// Warm marks a KindServe query that re-converged from a warm-start
	// snapshot instead of from the priors.
	Warm bool

	// Impl is the resolved engine implementation label of a serve.query
	// event ("residual", "relax", "pool.node", "batch", ...) — the
	// engine dimension of the latency histograms.
	Impl string
	// Variant is the message-update rule label of a serve.query event
	// ("vanilla", "damped", "circular").
	Variant string
	// RetryAfterSec is the Retry-After hint (seconds, as sent on the
	// wire) of a serve.shed event.
	RetryAfterSec int64
	// Waiting is the admission waiting-line depth alone (admitted
	// in-flight queries excluded) at a serve.shed event.
	Waiting int64

	// Relaxed-scheduling counters, cumulative, read from the live
	// atomics the engine itself accounts with (single source of truth
	// with the final OpCounts).
	StaleDrops int64
	Wasted     int64
	Contention int64

	// Kernel-layer counters, cumulative: fused fast-path folds taken
	// and max-rescales of linear running products.
	FastPath int64
	Rescales int64

	// Worker utilization (KindWorker): BusyNs is the time the worker
	// spent executing region bodies, WallNs the wall-clock span of all
	// parallel regions. WallNs-BusyNs is time lost to barrier waits and
	// queue starvation.
	BusyNs int64
	WallNs int64
}

// ConvergedFraction returns 1 - Active/Items — the fraction of the item
// space outside the unconverged frontier — or 0 when the event carries
// no occupancy data.
func (e Event) ConvergedFraction() float64 {
	if e.Items <= 0 || e.Active < 0 {
		return 0
	}
	f := 1 - float64(e.Active)/float64(e.Items)
	if f < 0 {
		return 0
	}
	return f
}

// Probe receives engine events at iteration/batch boundaries. Emit may
// be called concurrently from engine workers; every sink in this
// package is safe for concurrent use. Implementations must not retain
// references into the event (it is a value; copying it is retention
// enough).
type Probe interface {
	Emit(e Event)
}

// multi fans one emission out to several sinks.
type multi []Probe

func (m multi) Emit(e Event) {
	for _, p := range m {
		p.Emit(e)
	}
}

// Multi combines probes into one that forwards every event to each of
// them in order. Nil entries are dropped; Multi returns nil when
// nothing remains (keeping the disabled fast path) and the probe itself
// when exactly one remains.
func Multi(probes ...Probe) Probe {
	var ps multi
	for _, p := range probes {
		if p != nil {
			ps = append(ps, p)
		}
	}
	switch len(ps) {
	case 0:
		return nil
	case 1:
		return ps[0]
	}
	return ps
}
