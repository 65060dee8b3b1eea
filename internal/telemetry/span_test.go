package telemetry

import (
	"strings"
	"testing"
	"time"
)

// TestNilTracerIsFree pins the disabled contract end to end: a nil
// tracer yields a nil trace, and every method on the nil trace and its
// zero spans is a safe no-op.
func TestNilTracerIsFree(t *testing.T) {
	var tc *Tracer
	tr := tc.Start("query")
	if tr != nil {
		t.Fatalf("nil tracer Start = %v, want nil", tr)
	}
	sp := tr.Span("admit")
	sp.Child("inner").End()
	sp.End()
	tr.SetQuery("relax", "vanilla", true)
	tr.MarkShed()
	tr.MarkIterCap()
	tr.Emit(Event{Kind: KindIteration})
	if d := tr.Finish(); d != 0 {
		t.Errorf("nil Finish = %v, want 0", d)
	}
}

func TestTracerSampling(t *testing.T) {
	if tr := NewTracer(0).Start("q"); tr != nil {
		t.Error("sample 0 still traced")
	}
	tc := NewTracer(0.5)
	traced := 0
	for i := 0; i < 100; i++ {
		if tr := tc.Start("q"); tr != nil {
			traced++
			tr.Finish()
		}
	}
	if traced != 50 {
		t.Errorf("sample 0.5 traced %d of 100", traced)
	}
}

// TestTraceCapturesSpanTree drives one traced request through a span
// tree and a probe stream, forces capture (SlowNs = 0 flags every
// trace), and checks the flight record reproduces the whole thing.
func TestTraceCapturesSpanTree(t *testing.T) {
	tc := NewTracer(1)
	tc.SlowNs = 0
	tc.Flight = NewFlightRecorder(4)

	tr := tc.Start("query")
	if tr == nil {
		t.Fatal("sample 1 did not trace")
	}
	admit := tr.Span("admit")
	admit.End()
	run := tr.Span("run")
	child := run.Child("kernel")
	child.End()
	// run intentionally left open: Finish must close it at trace end.

	tr.Emit(Event{Kind: KindIteration, Engine: "relax", Iter: 1, Delta: 0.5, Updated: 10, Active: 3})
	tr.Emit(Event{Kind: KindIteration, Engine: "relax", Iter: 2, Delta: 0.01, Updated: 4, Active: 1})
	tr.Emit(Event{Kind: KindRunEnd, Engine: "relax", Iter: 2, Delta: 0.01, Converged: false})
	tr.SetQuery("relax", "vanilla", true)
	tr.Finish()

	recs := tc.Flight.Records()
	if len(recs) != 1 {
		t.Fatalf("captured %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Engine != "relax" || !rec.Warm {
		t.Errorf("labels: %+v", rec)
	}
	wantReasons := map[string]bool{"slow": true, "non_converged": true}
	for _, r := range rec.Reasons {
		if !wantReasons[r] {
			t.Errorf("unexpected reason %q", r)
		}
		delete(wantReasons, r)
	}
	for r := range wantReasons {
		t.Errorf("missing reason %q", r)
	}
	if len(rec.Spans) != 3 {
		t.Fatalf("spans = %+v, want 3", rec.Spans)
	}
	byName := map[string]FlightSpan{}
	for _, sp := range rec.Spans {
		byName[sp.Name] = sp
	}
	if byName["kernel"].Parent != 1 || byName["admit"].Parent != -1 {
		t.Errorf("parent links wrong: %+v", rec.Spans)
	}
	if byName["run"].EndNs != rec.WallNs {
		t.Errorf("open span not closed at trace end: %+v (wall %d)", byName["run"], rec.WallNs)
	}
	if len(rec.Trajectory) != 2 || rec.Trajectory[1].Delta != 0.01 {
		t.Errorf("trajectory: %+v", rec.Trajectory)
	}
	if rec.Iterations != 2 {
		t.Errorf("iterations = %d, want 2", rec.Iterations)
	}
}

// TestTraceBounded overflows both retention arrays and checks the trace
// counts the losses instead of growing.
func TestTraceBounded(t *testing.T) {
	tc := NewTracer(1)
	tc.SlowNs = 0
	tc.Flight = NewFlightRecorder(2)
	tr := tc.Start("query")
	for i := 0; i < traceMaxSpans+10; i++ {
		tr.Span("s")
	}
	for i := 0; i < traceMaxPoints+10; i++ {
		tr.Emit(Event{Kind: KindIteration, Iter: int32(i)})
	}
	tr.Finish()
	recs := tc.Flight.Records()
	if len(recs) != 1 {
		t.Fatalf("captured %d", len(recs))
	}
	if recs[0].LostSpans != 10 || recs[0].LostPoints != 10 {
		t.Errorf("lost spans/points = %d/%d, want 10/10", recs[0].LostSpans, recs[0].LostPoints)
	}
	if len(recs[0].Spans) != traceMaxSpans || len(recs[0].Trajectory) != traceMaxPoints {
		t.Errorf("retained %d spans %d points", len(recs[0].Spans), len(recs[0].Trajectory))
	}
}

// TestTracePoolReuse finishes a trace twice and starts a fresh one from
// the pool: the stale handle must be inert and the reused trace clean.
func TestTracePoolReuse(t *testing.T) {
	tc := NewTracer(1)
	tc.Flight = NewFlightRecorder(4)
	tc.SlowNs = 0

	tr := tc.Start("query")
	tr.Span("a").End()
	tr.Finish()
	tr.Finish() // stale double-finish: must not capture again or panic

	tr2 := tc.Start("query")
	tr2.Span("b").End()
	tr2.Finish()

	recs := tc.Flight.Records()
	if len(recs) != 2 {
		t.Fatalf("captured %d records, want 2", len(recs))
	}
	if len(recs[1].Spans) != 1 || recs[1].Spans[0].Name != "b" {
		t.Errorf("reused trace carried stale spans: %+v", recs[1].Spans)
	}
}

// TestFinishFeedsStageHistograms checks span wall times land in the
// per-stage histograms keyed by span name.
func TestFinishFeedsStageHistograms(t *testing.T) {
	var m Metrics
	tc := NewTracer(1)
	tc.Metrics = &m
	tr := tc.Start("query")
	sp := tr.Span("decode")
	time.Sleep(time.Millisecond)
	sp.End()
	tr.Finish()

	var sb strings.Builder
	m.WriteText(&sb)
	if !strings.Contains(sb.String(), `credo_serve_stage_seconds_count{stage="decode"} 1`) {
		t.Errorf("stage histogram missing:\n%s", sb.String())
	}
}

// TestDisabledTraceAllocFree locks the founding contract for the span
// layer: with tracing disabled (nil tracer → nil trace) the entire span
// API costs zero allocations.
func TestDisabledTraceAllocFree(t *testing.T) {
	var tc *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		tr := tc.Start("query")
		sp := tr.Span("admit")
		sp.Child("inner").End()
		sp.End()
		tr.SetQuery("relax", "vanilla", false)
		tr.MarkIterCap()
		tr.Emit(Event{Kind: KindIteration, Iter: 1, Delta: 0.5})
		tr.Finish()
	})
	if allocs != 0 {
		t.Errorf("disabled trace path allocates %.1f per run, want 0", allocs)
	}
}

// TestEnabledTraceAllocBound: a sampled trace that stays non-anomalous
// must not allocate either — spans are value handles into pooled
// arrays; only flight capture (the anomalous cold path) allocates.
func TestEnabledTraceAllocBound(t *testing.T) {
	tc := NewTracer(1)
	allocs := testing.AllocsPerRun(100, func() {
		tr := tc.Start("query")
		sp := tr.Span("admit")
		sp.End()
		run := tr.Span("run")
		tr.Emit(Event{Kind: KindIteration, Iter: 1, Delta: 0.5})
		run.End()
		tr.SetQuery("relax", "vanilla", false)
		tr.Finish()
	})
	if allocs != 0 {
		t.Errorf("healthy traced path allocates %.1f per run, want 0", allocs)
	}
}
