package poolbp

import (
	"time"

	"credo/internal/telemetry"
)

// regionRunner launches parallel regions on the pool. With a probe
// attached it wraps every region body in per-worker busy-time
// accounting and accumulates the regions' wall-clock span, which is
// what the per-worker utilization events report (sync wait = wall −
// busy: time a worker spent parked at the pool barrier or starved by
// uneven shards). With no probe it launches directly — the timed
// closure is never built, so the untimed path costs nothing beyond one
// branch.
type regionRunner struct {
	p     *pool
	timed bool
	busy  []int64 // per-worker ns spent executing region bodies
	wall  int64   // total wall ns across all regions
}

func newRegionRunner(p *pool, workers int, timed bool) *regionRunner {
	r := &regionRunner{p: p, timed: timed}
	if timed {
		r.busy = make([]int64, workers)
	}
	return r
}

// run executes one parallel region. Each worker owns its busy slot and
// the pool barrier orders the writes before emitWorkers reads them.
func (r *regionRunner) run(body func(int)) {
	if !r.timed {
		r.p.run(body)
		return
	}
	start := time.Now()
	r.p.run(func(w int) {
		t0 := time.Now()
		body(w)
		r.busy[w] += time.Since(t0).Nanoseconds()
	})
	r.wall += time.Since(start).Nanoseconds()
}

// emitWorkers reports one KindWorker utilization event per worker.
func (r *regionRunner) emitWorkers(probe telemetry.Probe, engine string) {
	if !r.timed || probe == nil {
		return
	}
	for w, b := range r.busy {
		probe.Emit(telemetry.Event{
			Kind:   telemetry.KindWorker,
			Engine: engine,
			Worker: int32(w),
			BusyNs: b,
			WallNs: r.wall,
		})
	}
}
