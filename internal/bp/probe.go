package bp

import "credo/internal/telemetry"

// Engine names as they appear in telemetry events — one per serial
// engine in this package. The parallel packages define their own
// (pool.node, relax, omp.edge, cuda.node, ...), so a mixed event
// stream stays attributable.
const (
	engNode        = "bp.node"
	engEdge        = "bp.edge"
	engResidual    = "bp.residual"
	engTraditional = "bp.traditional"
	engMaxProduct  = "bp.maxproduct"
)

// EmitRunStart reports the start of one engine execution. Every engine,
// here and in the parallel and device packages, frames its run with
// EmitRunStart and EmitRunEnd, and sinks derive from that pair whatever
// they need of a run (the request trace its engine span, the execution
// tracer its run boundaries). Both are nil-safe: with no probe attached
// they return before building the event, which keeps the disabled path
// free of allocations and of branches beyond one nil check.
func EmitRunStart(p telemetry.Probe, engine string, items int64, threshold float32) {
	if p == nil {
		return
	}
	p.Emit(telemetry.Event{
		Kind:      telemetry.KindRunStart,
		Engine:    engine,
		Items:     items,
		Threshold: threshold,
	})
}

// EmitRunEnd reports the outcome of a finished run with the cumulative
// counters of its OpCounts (including the kernel counters, so callers
// must emit after accumulating them). Counters an engine does not keep
// are zero in its Result and so in the event.
func EmitRunEnd(p telemetry.Probe, engine string, res *Result) {
	if p == nil {
		return
	}
	p.Emit(telemetry.Event{
		Kind:       telemetry.KindRunEnd,
		Engine:     engine,
		Iter:       int32(res.Iterations),
		Delta:      res.FinalDelta,
		Converged:  res.Converged,
		Updated:    res.Ops.NodesProcessed,
		Edges:      res.Ops.EdgesProcessed,
		StaleDrops: res.Ops.StaleDrops,
		Wasted:     res.Ops.WastedUpdates,
		Contention: res.Ops.QueueContention,
		FastPath:   res.Ops.KernelFastPath,
		Rescales:   res.Ops.RescaleOps,
	})
}
