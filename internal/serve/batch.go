package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"credo/internal/core"
	"credo/internal/graph"
	"credo/internal/telemetry"
)

// DefaultBatchK is the lane capacity of a batch flush when Config leaves
// BatchK zero: eight lanes keep the K-wide gathers inside one or two
// cache lines for small state counts, which is where the SoA
// amortization pays most.
const DefaultBatchK = 8

// DefaultBatchWindow is the accumulation deadline when Config leaves
// BatchWindow zero. Two milliseconds is well under interactive latency
// budgets but long enough for concurrent clients to land in one flush.
const DefaultBatchWindow = 2 * time.Millisecond

// errSaturated marks a batch flush rejected by admission control; the
// HTTP layer turns it into 429 + Retry-After, exactly like a solo shed.
var errSaturated = errors.New("serve: saturated")

// warmDeltaMax is the per-lane warm-staging gate: a lane adopts the
// snapshot fixpoint only when the fraction of nodes whose clamp differs
// from the snapshot's evidence is at most this. The solo warm path has
// no such gate because residual scheduling is frontier-seeded — its
// cost scales with the delta and degrades gracefully toward a cold run.
// The batch is full-sweep Jacobi: started from a fixpoint the new
// evidence contradicts wholesale, it can oscillate to the iteration cap
// and drag every lane of the flush with it, so large-delta lanes stage
// cold (prior + evidence) instead. A small absolute delta is always a
// frontier-sized perturbation no matter the graph size — on a 4-node
// sprinkler one toggled clamp is 25% of nodes — so deltas up to
// warmDeltaMinNodes warm-start regardless of the fraction.
const (
	warmDeltaMax      = 0.10
	warmDeltaMinNodes = 8
)

// batcher accumulates same-graph queries and runs them as one K-way SoA
// batch. One batcher exists per resident; requests append to pending and
// block on their done channel. The batch flushes when K lanes fill or
// when the accumulation window expires, whichever comes first, so a lone
// query pays at most the window in added latency while a burst pays one
// structure pass for all K of its queries.
type batcher struct {
	s      *Server
	r      *Resident
	k      int
	window time.Duration

	// pool recycles the SoA overlay between flushes — the batch analogue
	// of the resident's solo lease pool.
	pool sync.Pool

	mu      sync.Mutex
	pending []*pendingQuery
	timer   *time.Timer
	// epoch numbers the accumulation windows: it advances every time the
	// pending batch is taken (full flush, deadline flush or drain). The
	// deadline timer is armed with the epoch of the window it belongs to
	// and fires into a no-op when that window was already taken — without
	// the stamp, a timer whose callback was already in flight when a full
	// flush Stop()ped it would grab the NEXT window's queries (flushing
	// them thousands of times early) and clear that window's armed timer
	// field, cascading the same interleaving onto every later window.
	epoch uint64

	// structGen is the base's structural generation the batcher's SoA
	// pool was built against; batcherFor retires the batcher when the
	// base has since grown edges.
	structGen uint64
}

// take removes and returns the accumulated window under b.mu, advancing
// the epoch and disarming the window's timer. Every path that flushes
// goes through here, so epoch and window stay in lockstep.
func (b *batcher) take() []*pendingQuery {
	batch := b.pending
	b.pending = nil
	b.epoch++
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return batch
}

// pendingQuery is one enqueued request: its decoded query going in, its
// response (or error) coming back out of the flush, plus the request's
// trace — its wait span measures exactly the accumulation delay the
// batching window cost this query.
type pendingQuery struct {
	rq   *ResolvedQuery
	tr   *telemetry.Trace
	wait telemetry.Span
	resp *Response
	err  error
	done chan struct{}
}

func newBatcher(s *Server, r *Resident) *batcher {
	b := &batcher{s: s, r: r, k: s.cfg.BatchK, window: s.cfg.BatchWindow,
		structGen: r.structuralGeneration()}
	b.pool.New = func() any {
		bs, err := graph.NewBatchState(r.base, b.k)
		if err != nil {
			// Unreachable: the server only builds batchers with k > 1.
			panic(err)
		}
		return bs
	}
	return b
}

// batcherFor returns the resident's batcher, creating it on first use.
// A resident replaced by a reload — or grown by a structural delta,
// which reshapes the SoA states the batcher pools — gets a fresh
// batcher; in-flight flushes against the old resident drain
// independently (retired BatchStates keep referencing the pre-merge
// adjacency arrays, which MergeDelta never patches in place).
func (s *Server) batcherFor(r *Resident) *batcher {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	b := s.batchers[r.Name]
	if b == nil || b.r != r || b.structGen != r.structuralGeneration() {
		b = newBatcher(s, r)
		s.batchers[r.Name] = b
	}
	return b
}

// enqueue adds one query to the pending batch and blocks until its flush
// completes. The Kth arrival flushes immediately on its own goroutine;
// otherwise the window timer (armed by the first arrival) flushes
// whatever accumulated.
func (b *batcher) enqueue(rq *ResolvedQuery, tr *telemetry.Trace) (*Response, error) {
	p := &pendingQuery{rq: rq, tr: tr, wait: tr.Span("batch.wait"), done: make(chan struct{})}
	b.mu.Lock()
	b.pending = append(b.pending, p)
	if len(b.pending) >= b.k {
		batch := b.take()
		b.mu.Unlock()
		b.flush(batch, telemetry.FlushFull)
	} else {
		if len(b.pending) == 1 {
			// Stamp the timer with its window: Stop() cannot un-fire a
			// callback already in flight, so the stamp is what actually
			// keeps a raced deadline away from later windows.
			epoch := b.epoch
			b.timer = time.AfterFunc(b.window, func() { b.flushDeadline(epoch) })
		}
		b.mu.Unlock()
	}
	<-p.done
	return p.resp, p.err
}

// flushDeadline is the window-expiry path: take whatever accumulated in
// the window the timer was armed for. A stale epoch means that window
// was already flushed (the Kth arrival or a drain won the race while
// this callback was in flight) — the queries now pending belong to a
// newer window with its own timer, so touching them here would flush
// them early and leave their window's timer field clobbered.
func (b *batcher) flushDeadline(epoch uint64) {
	b.mu.Lock()
	if b.epoch != epoch {
		b.mu.Unlock()
		return
	}
	batch := b.take()
	b.mu.Unlock()
	if len(batch) > 0 {
		b.flush(batch, telemetry.FlushDeadline)
	}
}

// drain flushes whatever is pending right now — the shutdown path, so
// in-flight clients get answers instead of hung connections.
func (b *batcher) drain() {
	b.mu.Lock()
	batch := b.take()
	b.mu.Unlock()
	if len(batch) > 0 {
		b.flush(batch, telemetry.FlushShutdown)
	}
}

// DrainBatchers flushes every batcher's pending queries immediately,
// labelled as shutdown flushes. The daemon calls it after the listener
// stops accepting so graceful shutdown never waits out a batch window.
func (s *Server) DrainBatchers() {
	s.batchMu.Lock()
	bs := make([]*batcher, 0, len(s.batchers))
	for _, b := range s.batchers {
		bs = append(bs, b)
	}
	s.batchMu.Unlock()
	for _, b := range bs {
		b.drain()
	}
}

// flush runs one accumulated batch through admission and the batched
// engine, fanning results back to the waiting requests. The whole flush
// takes a single admission slot — that is the batching win on the
// admission side: K queries cost one unit of the concurrency budget.
func (b *batcher) flush(batch []*pendingQuery, reason telemetry.FlushReason) {
	for _, p := range batch {
		p.wait.End()
	}
	defer func() {
		for _, p := range batch {
			close(p.done)
		}
	}()
	if !b.s.adm.admit() {
		for _, p := range batch {
			p.tr.MarkShed()
			b.s.emit(telemetry.Event{
				Kind:          telemetry.KindServe,
				Engine:        "serve.shed",
				Worker:        -1,
				Active:        b.s.adm.depth(),
				Items:         b.s.adm.capacity(),
				RetryAfterSec: int64(retryAfterSeconds(b.s.cfg.RetryAfter)),
				Waiting:       b.s.adm.waitDepth(),
			})
		}
		for _, p := range batch {
			p.err = errSaturated
		}
		return
	}
	defer b.s.adm.release()

	rqs := make([]*ResolvedQuery, len(batch))
	trs := make([]*telemetry.Trace, len(batch))
	for i, p := range batch {
		rqs[i] = p.rq
		trs[i] = p.tr
	}
	out, err := b.runFlush(rqs, trs, reason)
	for i, p := range batch {
		if err != nil {
			p.err = err
			continue
		}
		p.resp = out[i]
	}
}

// QueryBatched runs up to Config.BatchK decoded queries as one SoA batch
// flush against the resident — the direct entry point for tests and the
// credobench serve experiment. It bypasses the accumulation window and
// admission control (callers own their concurrency) but is otherwise the
// batcher's exact execution path: warm staging, one batched run, one
// snapshot store, per-lane responses labelled "batch".
func (s *Server) QueryBatched(r *Resident, rqs []*ResolvedQuery) ([]*Response, error) {
	return s.batcherFor(r).runFlush(rqs, nil, telemetry.FlushDirect)
}

// runFlush stages the queries into a pooled BatchState, runs the batched
// node-paradigm engine over the resident's base structure, snapshots a
// converged lane for future warm starts and marshals per-lane responses.
// trs carries the requests' traces lane-aligned with rqs (nil when the
// caller owns no traces): each lane records its staging, the shared run
// and its extraction, and lanes that stage cold despite an available
// snapshot — the large-delta demotion — are flagged for the flight
// recorder, since that demotion is exactly the pathology the staging
// gate exists to catch.
func (b *batcher) runFlush(rqs []*ResolvedQuery, trs []*telemetry.Trace, reason telemetry.FlushReason) ([]*Response, error) {
	if len(rqs) == 0 || len(rqs) > b.k {
		return nil, fmt.Errorf("serve: batch of %d queries, want 1..%d", len(rqs), b.k)
	}
	if trs == nil {
		trs = make([]*telemetry.Trace, len(rqs))
	}
	start := time.Now()

	bs := b.pool.Get().(*graph.BatchState)
	defer b.pool.Put(bs)

	// The batched engine reads the base's numeric and adjacency arrays
	// directly (no overlay clone), so the whole flush holds the base read
	// lock: /v1/update mutations serialize before or after it. The warm
	// pointer is read directly rather than through snapshot() — its
	// generation check re-acquires baseMu, and a nested RLock behind a
	// waiting writer deadlocks.
	b.r.baseMu.RLock()
	defer b.r.baseMu.RUnlock()
	gen := b.r.base.Generation()
	bs.Reset(b.r.base)
	bs.Used = len(rqs)

	b.r.warmMu.Lock()
	snap := b.r.warm
	b.r.warmMu.Unlock()
	if snap != nil && snap.gen != gen {
		snap = nil
	}
	laneWarm := make([]bool, len(rqs))
	for l, rq := range rqs {
		stage := trs[l].Span("stage")
		w, err := b.stageLane(bs, l, rq, snap)
		stage.End()
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		laneWarm[l] = w
		if snap != nil && !w {
			trs[l].MarkColdDelta()
		}
	}
	warm := false
	for _, w := range laneWarm {
		warm = warm || w
	}

	opts := b.s.cfg.Options
	opts.Probe = b.s.cfg.Probe
	for _, tr := range trs {
		if tr != nil {
			// Every lane's trace sees the shared run's iteration events:
			// the flush converges (or fails to) as one unit, so the
			// trajectory belongs on each query it carried.
			opts.Probe = telemetry.Multi(opts.Probe, tr)
		}
	}
	eng := core.Engine{Selector: b.s.cfg.Selector, Options: opts}
	if eng.PoolWorkers <= 0 {
		eng.PoolWorkers = b.s.cfg.Workers
	}
	runSpans := make([]telemetry.Span, len(trs))
	for l, tr := range trs {
		runSpans[l] = tr.Span("run")
	}
	rep := eng.RunBatch(b.r.base, bs)
	for _, sp := range runSpans {
		sp.End()
	}
	wall := time.Since(start)

	// Publish one converged lane as the warm snapshot; the last staged
	// lane wins so back-to-back flushes behave like sequential queries.
	for l := len(rqs) - 1; l >= 0; l-- {
		if !rep.Result.Lanes[l].Converged {
			continue
		}
		flat := make([]float32, len(b.r.base.Beliefs))
		bs.ExtractLane(l, flat)
		b.r.storeSnapshotBeliefs(flat, rqs[l].evidence, gen)
		if laneWarm[l] {
			b.r.warmMu.Lock()
			b.r.warmed++
			b.r.warmMu.Unlock()
		}
		break
	}

	out := make([]*Response, len(rqs))
	for l, rq := range rqs {
		lr := rep.Result.Lanes[l]
		trs[l].SetQuery(EngineBatch, b.s.variant, laneWarm[l], true)
		if !lr.Converged {
			trs[l].MarkNonConverged()
			if lr.Iterations >= maxIterCap(b.s.cfg.Options.MaxIterations) {
				trs[l].MarkIterCap()
			}
		}
		ext := trs[l].Span("extract")
		beliefs := marshalLaneBeliefs(b.r, bs, l, rq.nodes)
		ext.End()
		out[l] = &Response{
			Graph:      b.r.Name,
			Engine:     EngineBatch,
			Warm:       laneWarm[l],
			Converged:  lr.Converged,
			Iterations: lr.Iterations,
			Updates:    lr.Updates,
			Edges:      lr.Edges,
			FinalDelta: float64(lr.FinalDelta),
			WallNs:     wall.Nanoseconds(),
			Beliefs:    beliefs,
		}
	}
	b.s.emit(telemetry.Event{
		Kind:      telemetry.KindServe,
		Engine:    "serve.batch",
		Worker:    -1,
		Flush:     reason,
		Warm:      warm,
		Converged: rep.Result.Converged,
		Iter:      int32(rep.Result.Iterations),
		BusyNs:    wall.Nanoseconds(),
		Active:    int64(len(rqs)), // occupancy: lanes actually staged
		Items:     int64(b.k),      // capacity: lanes available
	})
	return out, nil
}

// stageLane prepares one lane and reports whether it warm-started: lanes
// whose evidence delta against the snapshot passes warmDeltaMax adopt
// the snapshot fixpoint, with changed-and-unclamped nodes restarted from
// their prior — the same staging the solo warm path applies to its
// overlay, done per lane on the SoA state. Lanes with no snapshot or too
// large a delta stage cold (priors plus evidence, the Reset state).
func (b *batcher) stageLane(bs *graph.BatchState, l int, rq *ResolvedQuery, snap *warmState) (bool, error) {
	warm := false
	if snap != nil {
		changed := 0
		diffEvidence(snap.evidence, rq.evidence, func(_, _, _ int32) { changed++ })
		warm = changed <= warmDeltaMinNodes ||
			float64(changed) <= warmDeltaMax*float64(bs.NumNodes)
	}
	if warm {
		bs.SetLaneBeliefs(l, snap.beliefs)
	}
	for _, ev := range rq.evidence {
		if err := bs.Observe(l, ev.node, int(ev.state)); err != nil {
			return false, err
		}
	}
	if !warm {
		return false, nil
	}
	s, kk := bs.States, bs.K
	diffEvidence(snap.evidence, rq.evidence, func(v, _, now int32) {
		// Unchanged clamps keep the fixpoint; re-clamped nodes were just
		// reset by Observe. Only retracted nodes need their beliefs
		// returned to the prior.
		if now != -1 {
			return
		}
		base := int(v) * s * kk
		for j := 0; j < s; j++ {
			bs.Beliefs[base+j*kk+l] = bs.Priors[base+j*kk+l]
		}
	})
	return true, nil
}

// marshalLaneBeliefs copies one lane's requested posteriors (all nodes
// when nodes is nil) into a name-keyed response map.
func marshalLaneBeliefs(r *Resident, bs *graph.BatchState, lane int, nodes []int32) map[string][]float32 {
	get := func(v int32) []float32 {
		return bs.LaneBelief(lane, v, make([]float32, bs.States))
	}
	if nodes == nil {
		out := make(map[string][]float32, bs.NumNodes)
		for v := int32(0); v < int32(bs.NumNodes); v++ {
			out[r.nodeLabel(v)] = get(v)
		}
		return out
	}
	out := make(map[string][]float32, len(nodes))
	for _, v := range nodes {
		out[r.nodeLabel(v)] = get(v)
	}
	return out
}
