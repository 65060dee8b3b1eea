package serve

import (
	"testing"
	"time"

	"credo/internal/gen"
	"credo/internal/telemetry"
)

// newTracedServer wires a grid server to a force-capture tracer: every
// traced query is flagged slow (SlowNs = 0) and lands in the flight
// recorder, so tests can assert on complete span trees.
func newTracedServer(t *testing.T, cfg Config) (*Server, *Resident, *telemetry.FlightRecorder) {
	t.Helper()
	tc := telemetry.NewTracer(1)
	tc.SlowNs = 0
	tc.Flight = telemetry.NewFlightRecorder(16)
	cfg.Tracer = tc
	s, r := newGridServer(t, cfg)
	return s, r, tc.Flight
}

func spanNames(rec *telemetry.FlightRecord) map[string]bool {
	names := make(map[string]bool, len(rec.Spans))
	for _, sp := range rec.Spans {
		names[sp.Name] = true
	}
	return names
}

// TestSoloQueryTrace drives one solo query through the HTTP handler and
// checks the captured flight record holds the full pipeline span tree —
// admission, decode, the overlay lease, engine selection, the engine's
// own run span, extraction, encoding — plus the convergence trajectory
// the engine's iteration events mirrored into the trace.
func TestSoloQueryTrace(t *testing.T) {
	s, ts, _ := newHTTPServer(t, Config{})
	tc := telemetry.NewTracer(1)
	tc.SlowNs = 0
	tc.Flight = telemetry.NewFlightRecorder(16)
	s.cfg.Tracer = tc

	// The node engine emits an iteration event every sweep, so the
	// trajectory assertion is deterministic.
	hr, body := postJSON(t, ts.URL+"/v1/query?engine=node", `{"evidence":[{"node":"0","state":1}]}`)
	if hr.StatusCode != 200 {
		t.Fatalf("query = %d: %s", hr.StatusCode, body)
	}

	recs := tc.Flight.Records()
	if len(recs) != 1 {
		t.Fatalf("captured %d flight records, want 1", len(recs))
	}
	rec := recs[0]
	names := spanNames(rec)
	for _, want := range []string{"admit", "decode", "lease", "bp.node", "extract", "encode"} {
		if !names[want] {
			t.Errorf("span %q missing from %v", want, rec.Spans)
		}
	}
	if rec.Engine == "" || rec.Warm {
		t.Errorf("labels: engine=%q warm=%v", rec.Engine, rec.Warm)
	}
	if len(rec.Trajectory) == 0 {
		t.Error("no convergence trajectory mirrored into the trace")
	}
	if rec.WallNs <= 0 {
		t.Errorf("wall = %d", rec.WallNs)
	}
}

// TestWarmQueryTraceStagesWarm runs the same evidence twice: the second
// query must warm-start and its trace must carry the stage.warm span and
// the warm label.
func TestWarmQueryTraceStagesWarm(t *testing.T) {
	s, r, flight := newTracedServer(t, Config{})
	tr1 := s.cfg.Tracer.Start("query")
	if _, err := s.queryResident(r, EngineAuto, decode(t, r, `{"evidence":[{"node":"0","state":1}]}`), tr1); err != nil {
		t.Fatal(err)
	}
	tr1.Finish()
	tr2 := s.cfg.Tracer.Start("query")
	if _, err := s.queryResident(r, EngineAuto, decode(t, r, `{"evidence":[{"node":"0","state":0}]}`), tr2); err != nil {
		t.Fatal(err)
	}
	tr2.Finish()

	recs := flight.Records()
	if len(recs) != 2 {
		t.Fatalf("captured %d records, want 2", len(recs))
	}
	if !recs[1].Warm {
		t.Fatal("second query did not warm-start")
	}
	if names := spanNames(recs[1]); !names["stage.warm"] || !names["bp.residual"] {
		t.Errorf("warm trace spans: %v", recs[1].Spans)
	}
	if names := spanNames(recs[0]); !names["select"] {
		t.Errorf("cold auto trace misses the select span: %v", recs[0].Spans)
	}
}

// TestShedEventCarriesRetryAfterAndWaiting is the shed observability
// contract: one rejected request emits exactly one serve.shed event, and
// that event carries the Retry-After value actually sent on the wire
// plus the waiting-line depth at rejection time.
func TestShedEventCarriesRetryAfterAndWaiting(t *testing.T) {
	rec := &telemetry.Recorder{}
	s, ts, _ := newHTTPServer(t, Config{MaxInFlight: 1, MaxQueue: 1, RetryAfter: 7 * time.Second})
	s.cfg.Options.Probe = rec

	s.adm.slots <- struct{}{}
	s.adm.waiting.Add(1)
	defer func() {
		<-s.adm.slots
		s.adm.waiting.Add(-1)
	}()

	hr, body := postJSON(t, ts.URL+"/v1/query", `{}`)
	if hr.StatusCode != 429 {
		t.Fatalf("saturated query = %d: %s", hr.StatusCode, body)
	}

	sheds := 0
	var shed telemetry.Event
	for _, e := range rec.Events() {
		if e.Kind == telemetry.KindServe && e.Engine == "serve.shed" {
			sheds++
			shed = e
		}
	}
	if sheds != 1 {
		t.Fatalf("shed path emitted %d serve.shed events, want exactly 1", sheds)
	}
	if shed.RetryAfterSec != 7 {
		t.Errorf("RetryAfterSec = %d, want 7 (the wire Retry-After)", shed.RetryAfterSec)
	}
	if shed.Waiting != 1 {
		t.Errorf("Waiting = %d, want 1 (the occupied waiting line)", shed.Waiting)
	}
}

// TestShedTraceFlagged: a shed request's trace reaches the flight
// recorder flagged "shed".
func TestShedTraceFlagged(t *testing.T) {
	s, ts, _ := newHTTPServer(t, Config{MaxInFlight: 1, MaxQueue: 1})
	tc := telemetry.NewTracer(1)
	tc.Flight = telemetry.NewFlightRecorder(4)
	s.cfg.Tracer = tc // SlowNs = -1: only the shed flag can capture

	s.adm.slots <- struct{}{}
	s.adm.waiting.Add(1)
	defer func() {
		<-s.adm.slots
		s.adm.waiting.Add(-1)
	}()

	if hr, _ := postJSON(t, ts.URL+"/v1/query", `{}`); hr.StatusCode != 429 {
		t.Fatalf("status %d", hr.StatusCode)
	}
	recs := tc.Flight.Records()
	if len(recs) != 1 {
		t.Fatalf("captured %d, want 1", len(recs))
	}
	if len(recs[0].Reasons) != 1 || recs[0].Reasons[0] != "shed" {
		t.Errorf("reasons = %v, want [shed]", recs[0].Reasons)
	}
}

// BenchmarkTraceOverhead measures the serving path with tracing off
// (nil tracer — the default) and with every request traced, so the
// enabled-path overhead stays visible in the bench-smoke artifact.
func BenchmarkTraceOverhead(b *testing.B) {
	run := func(b *testing.B, tc *telemetry.Tracer) {
		s := New(Config{Tracer: tc})
		g, err := gen.Grid(16, 16, gen.Config{Seed: 5, States: 2, Shared: true, Keep: 0.6})
		if err != nil {
			b.Fatal(err)
		}
		r, err := s.Load("grid", g)
		if err != nil {
			b.Fatal(err)
		}
		rq, err := r.DecodeQuery([]byte(`{"evidence":[{"node":"0","state":1}]}`))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr := tc.Start("query")
			if _, err := s.queryResident(r, EngineResidual, rq, tr); err != nil {
				b.Fatal(err)
			}
			tr.Finish()
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("traced", func(b *testing.B) {
		tc := telemetry.NewTracer(1)
		tc.Metrics = &telemetry.Metrics{}
		run(b, tc)
	})
}
