package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Request-scoped tracing. A Tracer hands out pooled Traces — one per
// sampled serving request — and every layer the request crosses opens a
// Span on it: admission wait, decode, warm-vs-cold staging, the engine
// run and belief extraction. A Trace is itself a Probe: attached to the
// run's probe chain it opens the engine's span at run_start, closes it
// at run_end and mirrors the iteration events into a bounded
// convergence trajectory, so a finished trace holds both *where the
// wall time went* (the span tree) and *what convergence did meanwhile*
// (the residual series) — exactly the two series the scheduling
// literature reads together.
//
// The layer keeps the package's founding contract: observability is
// free when it is off. A nil *Tracer returns a nil *Trace, every Trace
// and Span method is a nil-safe no-op, and span handles are value
// structs carved out of the trace's pre-allocated arrays — the disabled
// path is locked at 0 allocs by TestDisabledTraceAllocFree, and the
// enabled path allocates only when a trace is captured by the flight
// recorder (the anomalous-query cold path).

// Per-trace retention bounds. Spans cover pipeline stages (a dozen per
// request, never per node); trajectory points arrive once per engine
// iteration, so 256 covers a 200-iteration capped run with margin.
// Overflow is counted, never grown — a trace can never amplify a
// pathological run's memory.
const (
	traceMaxSpans  = 32
	traceMaxPoints = 256
)

// traceFlag marks one anomaly class on a trace; any set flag makes the
// trace flight-recordable at Finish.
type traceFlag uint8

const (
	flagSlow traceFlag = 1 << iota
	flagShed
	flagIterCap
	flagNonConverged
)

// flagNames renders the set flags as the flight record's reason list.
func flagNames(f traceFlag) []string {
	var out []string
	for _, r := range []struct {
		flag traceFlag
		name string
	}{
		{flagSlow, "slow"},
		{flagShed, "shed"},
		{flagIterCap, "iter_cap"},
		{flagNonConverged, "non_converged"},
	} {
		if f&r.flag != 0 {
			out = append(out, r.name)
		}
	}
	return out
}

// Tracer creates request traces. The zero value is unusable — build one
// with NewTracer — but a nil *Tracer is the valid disabled state: Start
// returns nil and the whole span API degrades to free no-ops.
type Tracer struct {
	// Metrics, when non-nil, receives per-stage wall times from every
	// finished trace (the credo_serve_stage_seconds histograms).
	Metrics *Metrics

	// Flight, when non-nil, retains anomalous traces: any trace with an
	// anomaly flag set (slow, shed, iteration cap, non-converged run) is
	// captured at Finish.
	Flight *FlightRecorder

	// SlowNs is the latency anomaly threshold: a trace whose total wall
	// reaches it is flagged slow. Zero flags every trace (the forced-
	// capture smoke mode); negative disables the latency trigger.
	// NewTracer leaves it at -1.
	SlowNs int64

	every uint64 // trace every Nth Start; 0 = never
	seq   atomic.Uint64
	ids   atomic.Uint64
	pool  sync.Pool
}

// NewTracer returns a tracer sampling the given fraction of Start calls
// (1 traces every request, 0.01 every hundredth, <= 0 none). The
// latency trigger starts disabled; set SlowNs (and Metrics / Flight)
// before serving.
func NewTracer(sample float64) *Tracer {
	t := &Tracer{SlowNs: -1}
	switch {
	case sample <= 0:
		t.every = 0
	case sample >= 1:
		t.every = 1
	default:
		t.every = uint64(math.Round(1 / sample))
		if t.every < 1 {
			t.every = 1
		}
	}
	t.pool.New = func() any {
		return &Trace{
			spans:  make([]spanRec, 0, traceMaxSpans),
			points: make([]TracePoint, 0, traceMaxPoints),
		}
	}
	return t
}

// Start opens a trace for one request, or returns nil when the tracer
// is nil or sampling skips this request. The caller owns the trace
// until Finish returns it to the pool.
func (t *Tracer) Start(name string) *Trace {
	if t == nil || t.every == 0 {
		return nil
	}
	if t.every > 1 && t.seq.Add(1)%t.every != 0 {
		return nil
	}
	tr := t.pool.Get().(*Trace)
	tr.tracer = t
	tr.id = t.ids.Add(1)
	tr.name = name
	tr.start = time.Now()
	return tr
}

// spanRec is one recorded span: offsets on the trace's monotonic clock
// (time.Since against the trace start, so wall-clock steps never warp a
// span) plus the parent link. endNs == 0 means still open — Finish
// closes stragglers at the trace end.
type spanRec struct {
	name    string
	parent  int32
	startNs int64
	endNs   int64
}

// TracePoint is one convergence-trajectory sample, mirrored from a
// KindIteration probe event with the trace-relative arrival time.
type TracePoint struct {
	TNs     int64   `json:"t_ns"`
	Engine  string  `json:"engine"`
	Iter    int32   `json:"iter"`
	Delta   float32 `json:"delta"`
	Updated int64   `json:"updated"`
	Active  int64   `json:"active"`
}

// Trace is one request's span tree and convergence trajectory. All
// methods are safe on a nil receiver (the unsampled/disabled state) and
// safe for concurrent use — probe events may arrive from engine worker
// goroutines while the handler goroutine owns the request.
type Trace struct {
	tracer *Tracer
	id     uint64
	name   string
	start  time.Time

	mu         sync.Mutex
	spans      []spanRec
	points     []TracePoint
	lostSpans  int32
	lostPoints int32
	flags      traceFlag
	run        Span // the engine run span open between run_start and run_end
	engine     string
	variant    string
	warm       bool
	endIter    int32
	endDelta   float32
	done       bool
}

// Span is a handle on one open span — a value struct, so opening and
// ending spans never allocates. The zero Span (from a nil trace or a
// full span table) is a valid no-op handle.
type Span struct {
	t   *Trace
	idx int32
}

// Span opens a root-level span. End it with Span.End; a span left open
// is closed at the trace end by Finish.
func (t *Trace) Span(name string) Span { return t.span(name, -1) }

// Child opens a span nested under s.
func (s Span) Child(name string) Span {
	if s.t == nil {
		return Span{}
	}
	return s.t.span(name, s.idx)
}

func (t *Trace) span(name string, parent int32) Span {
	if t == nil {
		return Span{}
	}
	now := time.Since(t.start).Nanoseconds()
	t.mu.Lock()
	if len(t.spans) == cap(t.spans) {
		t.lostSpans++
		t.mu.Unlock()
		return Span{}
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, spanRec{name: name, parent: parent, startNs: now})
	t.mu.Unlock()
	return Span{t: t, idx: idx}
}

// End closes the span at the current trace clock.
func (s Span) End() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.start).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans[s.idx].endNs = now
	s.t.mu.Unlock()
}

// SetQuery attaches the resolved query labels — the latency-histogram
// dimensions — to the trace for its flight record.
func (t *Trace) SetQuery(engine, variant string, warm bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.engine, t.variant, t.warm = engine, variant, warm
	t.mu.Unlock()
}

// MarkShed flags the request as rejected by admission control.
func (t *Trace) MarkShed() { t.mark(flagShed) }

// MarkIterCap flags the run as stopped by the iteration cap.
func (t *Trace) MarkIterCap() { t.mark(flagIterCap) }

func (t *Trace) mark(f traceFlag) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.flags |= f
	t.mu.Unlock()
}

// Emit implements Probe, so the engines' one event path also builds the
// trace: a run start opens a root span named after the engine, a run
// end closes it and records the outcome, and iteration events append to
// the bounded convergence trajectory. A run end with no open run span
// only records the outcome.
func (t *Trace) Emit(e Event) {
	if t == nil {
		return
	}
	switch e.Kind {
	case KindRunStart:
		sp := t.Span(e.Engine)
		t.mu.Lock()
		t.run = sp
		t.mu.Unlock()
	case KindIteration:
		now := time.Since(t.start).Nanoseconds()
		t.mu.Lock()
		if len(t.points) < cap(t.points) {
			t.points = append(t.points, TracePoint{
				TNs:     now,
				Engine:  e.Engine,
				Iter:    e.Iter,
				Delta:   e.Delta,
				Updated: e.Updated,
				Active:  e.Active,
			})
		} else {
			t.lostPoints++
		}
		t.mu.Unlock()
	case KindRunEnd:
		now := time.Since(t.start).Nanoseconds()
		t.mu.Lock()
		if t.run.t != nil {
			t.spans[t.run.idx].endNs = now
			t.run = Span{}
		}
		t.endIter, t.endDelta = e.Iter, e.Delta
		if !e.Converged {
			t.flags |= flagNonConverged
		}
		t.mu.Unlock()
	}
}

// Finish closes the trace: stage wall times feed the metrics
// histograms, an anomalous trace (any flag set, or total wall past the
// tracer's SlowNs) is captured by the flight recorder, and the trace
// returns to the pool. It reports the total wall clock, is idempotent,
// and is a no-op on nil.
func (t *Trace) Finish() time.Duration {
	if t == nil {
		return 0
	}
	total := time.Since(t.start)
	t.mu.Lock()
	// tracer == nil means a stale handle re-finishing a trace that was
	// already reset and pooled; it must not touch the trace's state (a
	// poisoned done flag would silently drop the next request's trace).
	if t.done || t.tracer == nil {
		t.mu.Unlock()
		return total
	}
	t.done = true
	tc := t.tracer
	if tc.SlowNs >= 0 && total.Nanoseconds() >= tc.SlowNs {
		t.flags |= flagSlow
	}
	if tc.Metrics != nil {
		for i := range t.spans {
			sp := &t.spans[i]
			end := sp.endNs
			if end == 0 {
				end = total.Nanoseconds()
			}
			tc.Metrics.ObserveStage(sp.name, float64(end-sp.startNs)/1e9)
		}
	}
	if tc.Flight != nil && t.flags != 0 {
		tc.Flight.Capture(t.record(total))
	}
	t.reset()
	t.mu.Unlock()
	tc.pool.Put(t)
	return total
}

// record snapshots the trace into an immutable flight record (the only
// allocation of the tracing layer, paid on the anomalous path alone).
func (t *Trace) record(total time.Duration) *FlightRecord {
	rec := &FlightRecord{
		Kind:        "flight",
		ID:          t.id,
		Name:        t.name,
		Reasons:     flagNames(t.flags),
		Engine:      t.engine,
		Variant:     t.variant,
		Warm:        t.warm,
		StartUnixNs: t.start.UnixNano(),
		WallNs:      total.Nanoseconds(),
		Iterations:  t.endIter,
		FinalDelta:  t.endDelta,
		LostSpans:   t.lostSpans,
		LostPoints:  t.lostPoints,
		Spans:       make([]FlightSpan, len(t.spans)),
		Trajectory:  append([]TracePoint(nil), t.points...),
	}
	for i, sp := range t.spans {
		end := sp.endNs
		if end == 0 {
			end = rec.WallNs
		}
		rec.Spans[i] = FlightSpan{Name: sp.name, Parent: sp.parent, StartNs: sp.startNs, EndNs: end}
	}
	return rec
}

// reset clears the trace for pooled reuse, keeping the backing arrays.
// Caller holds t.mu.
func (t *Trace) reset() {
	t.tracer = nil
	t.id = 0
	t.name = ""
	t.start = time.Time{}
	t.spans = t.spans[:0]
	t.points = t.points[:0]
	t.lostSpans, t.lostPoints = 0, 0
	t.flags = 0
	t.run = Span{}
	t.engine, t.variant = "", ""
	t.warm = false
	t.endIter, t.endDelta = 0, 0
	t.done = false
}
