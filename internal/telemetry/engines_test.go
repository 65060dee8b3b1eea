// Package telemetry_test holds the cross-engine integration tests of the
// probe layer: every engine must frame its run with run_start/run_end,
// emit iteration boundaries in between, stay race-clean when workers
// emit concurrently, and cost nothing when no probe is attached.
package telemetry_test

import (
	"bytes"
	"runtime/trace"
	"sync"
	"testing"

	"credo/internal/bp"
	"credo/internal/cudabp"
	"credo/internal/gen"
	"credo/internal/gpusim"
	"credo/internal/graph"
	"credo/internal/ompbp"
	"credo/internal/poolbp"
	"credo/internal/relaxbp"
	"credo/internal/telemetry"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.Synthetic(200, 800, gen.Config{Seed: 5, States: 2, Shared: true})
	if err != nil {
		t.Fatalf("Synthetic: %v", err)
	}
	return g
}

// entryPoint is one engine entry point run with a given probe.
type entryPoint struct {
	engine     string
	sumUpdates bool // iteration Updated increments sum to the run_end total
	run        func(p telemetry.Probe, g *graph.Graph) bp.Result
}

// entryPoints lists the twelve engine entry points, each reporting only
// through the probe it is handed.
func entryPoints(t *testing.T) []entryPoint {
	opts := func(p telemetry.Probe) bp.Options {
		return bp.Options{WorkQueue: true, Probe: p}
	}
	pascal := gpusim.Pascal()
	return []entryPoint{
		{"bp.node", true, func(p telemetry.Probe, g *graph.Graph) bp.Result {
			return bp.RunNode(g, opts(p))
		}},
		{"bp.edge", true, func(p telemetry.Probe, g *graph.Graph) bp.Result {
			return bp.RunEdge(g, opts(p))
		}},
		{"bp.residual", false, func(p telemetry.Probe, g *graph.Graph) bp.Result {
			return bp.RunResidual(g, opts(p))
		}},
		{"bp.traditional", false, func(p telemetry.Probe, g *graph.Graph) bp.Result {
			return bp.RunTraditional(g, opts(p))
		}},
		{"bp.maxproduct", true, func(p telemetry.Probe, g *graph.Graph) bp.Result {
			return bp.RunMaxProduct(g, opts(p))
		}},
		{"pool.node", true, func(p telemetry.Probe, g *graph.Graph) bp.Result {
			return poolbp.RunNode(g, poolbp.Options{Options: opts(p), Workers: 4})
		}},
		{"pool.edge", true, func(p telemetry.Probe, g *graph.Graph) bp.Result {
			return poolbp.RunEdge(g, poolbp.Options{Options: opts(p), Workers: 4})
		}},
		{"relax", false, func(p telemetry.Probe, g *graph.Graph) bp.Result {
			return relaxbp.Run(g, relaxbp.Options{Options: opts(p), Workers: 4, Seed: 7})
		}},
		{"omp.node", true, func(p telemetry.Probe, g *graph.Graph) bp.Result {
			return ompbp.RunNode(g, ompbp.Options{Options: opts(p), Threads: 4})
		}},
		{"omp.edge", true, func(p telemetry.Probe, g *graph.Graph) bp.Result {
			return ompbp.RunEdge(g, ompbp.Options{Options: opts(p), Threads: 4})
		}},
		{"cuda.node", true, func(p telemetry.Probe, g *graph.Graph) bp.Result {
			res, err := cudabp.RunNode(g, gpusim.NewDevice(pascal), cudabp.Options{Options: opts(p)})
			if err != nil {
				t.Fatalf("cuda.node: %v", err)
			}
			return res.Result
		}},
		{"cuda.edge", true, func(p telemetry.Probe, g *graph.Graph) bp.Result {
			res, err := cudabp.RunEdge(g, gpusim.NewDevice(pascal), cudabp.Options{Options: opts(p)})
			if err != nil {
				t.Fatalf("cuda.edge: %v", err)
			}
			return res.Result
		}},
	}
}

// TestEveryEngineEmitsFramedEvents locks the cross-engine event
// contract: each of the twelve entry points opens with run_start,
// closes with run_end, reports at least one iteration boundary, and —
// for the engines whose boundaries carry per-boundary increments that
// cover the whole run — the increments sum to the run_end total.
func TestEveryEngineEmitsFramedEvents(t *testing.T) {
	for _, c := range entryPoints(t) {
		t.Run(c.engine, func(t *testing.T) {
			rec := telemetry.NewRecorder(0)
			res := c.run(rec, testGraph(t))
			events := rec.Events()
			if len(events) < 3 {
				t.Fatalf("%d events, want at least run_start + iteration + run_end", len(events))
			}
			first, last := events[0], events[len(events)-1]
			if first.Kind != telemetry.KindRunStart || first.Engine != c.engine {
				t.Errorf("first event = %v %q, want run_start %q", first.Kind, first.Engine, c.engine)
			}
			if first.Items <= 0 {
				t.Errorf("run_start Items = %d, want > 0", first.Items)
			}
			if last.Kind != telemetry.KindRunEnd {
				t.Fatalf("last event = %v, want run_end", last.Kind)
			}
			if last.Converged != res.Converged || int(last.Iter) != res.Iterations {
				t.Errorf("run_end (iter=%d converged=%v) disagrees with Result (iter=%d converged=%v)",
					last.Iter, last.Converged, res.Iterations, res.Converged)
			}
			var iters, sum int64
			for _, e := range events {
				if e.Kind != telemetry.KindIteration {
					continue
				}
				if e.Engine != c.engine {
					t.Errorf("iteration event from %q in a %q run", e.Engine, c.engine)
				}
				iters++
				sum += e.Updated
			}
			if iters == 0 {
				t.Error("no iteration events")
			}
			if c.sumUpdates && sum != res.Ops.NodesProcessed {
				t.Errorf("iteration Updated increments sum to %d, run total is %d", sum, res.Ops.NodesProcessed)
			}
		})
	}
}

// TestEveryEngineSpanFromProbe: a request trace attached only as the
// run's probe derives the engine's span from run_start/run_end, so every
// entry point shows up as exactly one span named after it, closed when
// the run ends rather than when the trace finishes.
func TestEveryEngineSpanFromProbe(t *testing.T) {
	for _, c := range entryPoints(t) {
		t.Run(c.engine, func(t *testing.T) {
			tc := telemetry.NewTracer(1)
			tc.SlowNs = 0 // capture every trace
			tc.Flight = telemetry.NewFlightRecorder(1)
			tr := tc.Start("query")
			c.run(tr, testGraph(t))
			tr.Finish()

			recs := tc.Flight.Records()
			if len(recs) != 1 {
				t.Fatalf("captured %d flight records, want 1", len(recs))
			}
			rec := recs[0]
			if len(rec.Spans) != 1 || rec.Spans[0].Name != c.engine {
				t.Fatalf("spans = %+v, want exactly one span %q", rec.Spans, c.engine)
			}
			if sp := rec.Spans[0]; sp.Parent != -1 || sp.EndNs >= rec.WallNs {
				t.Errorf("span %+v: want a root span closed before the trace end at %d ns", sp, rec.WallNs)
			}
		})
	}
}

// TestExecTraceLogsEngineEvents runs an engine under the Go execution
// tracer with ExecTrace as its probe: the trace must carry the engine's
// name and its run_end event.
func TestExecTraceLogsEngineEvents(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.Start(&buf); err != nil {
		t.Skipf("execution tracer already running: %v", err)
	}
	bp.RunNode(testGraph(t), bp.Options{WorkQueue: true, Probe: telemetry.ExecTrace{}})
	trace.Stop()
	for _, want := range []string{"bp.node", "run_end"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("execution trace (%d bytes) does not contain %q", buf.Len(), want)
		}
	}
}

// TestExecTraceAllocFree: with the execution tracer off, the sink costs
// one check and no allocation.
func TestExecTraceAllocFree(t *testing.T) {
	if trace.IsEnabled() {
		t.Skip("execution tracer is running")
	}
	var p telemetry.Probe = telemetry.ExecTrace{}
	allocs := testing.AllocsPerRun(100, func() {
		p.Emit(telemetry.Event{Kind: telemetry.KindIteration, Engine: "bp.node", Iter: 1})
	})
	if allocs != 0 {
		t.Errorf("ExecTrace.Emit with the tracer off: %.1f allocs, want 0", allocs)
	}
}

// TestPoolWorkerUtilization locks the poolbp-specific part of the
// contract: one worker event per team member, framed before run_end.
func TestPoolWorkerUtilization(t *testing.T) {
	const workers = 4
	rec := telemetry.NewRecorder(0)
	poolbp.RunNode(testGraph(t), poolbp.Options{
		Options: bp.Options{WorkQueue: true, Probe: rec},
		Workers: workers,
	})
	var worker []telemetry.Event
	for _, e := range rec.Events() {
		if e.Kind == telemetry.KindWorker {
			worker = append(worker, e)
		}
	}
	if len(worker) != workers {
		t.Fatalf("%d worker events, want %d", len(worker), workers)
	}
	for _, e := range worker {
		if e.Worker < 0 || int(e.Worker) >= workers {
			t.Errorf("worker id %d out of range", e.Worker)
		}
		if e.BusyNs < 0 || e.WallNs < e.BusyNs {
			t.Errorf("worker %d: busy %dns exceeds wall %dns", e.Worker, e.BusyNs, e.WallNs)
		}
	}
}

// TestConcurrentEmission shares one probe stack across engines running
// in parallel, each with internal worker teams emitting concurrently —
// the scenario the race job locks down.
func TestConcurrentEmission(t *testing.T) {
	rec := telemetry.NewRecorder(0)
	var metrics telemetry.Metrics
	var buf bytes.Buffer
	probe := telemetry.Multi(rec, &metrics, telemetry.NewJSONLWriter(&buf))

	var wg sync.WaitGroup
	run := func(f func()) { wg.Add(1); go func() { defer wg.Done(); f() }() }
	run(func() {
		poolbp.RunNode(testGraph(t), poolbp.Options{Options: bp.Options{WorkQueue: true, Probe: probe}, Workers: 4})
	})
	run(func() {
		relaxbp.Run(testGraph(t), relaxbp.Options{Options: bp.Options{WorkQueue: true, Probe: probe}, Workers: 4, Seed: 3})
	})
	run(func() {
		ompbp.RunNode(testGraph(t), ompbp.Options{Options: bp.Options{WorkQueue: true, Probe: probe}, Threads: 4})
	})
	wg.Wait()

	ends := map[string]bool{}
	for _, e := range rec.Events() {
		if e.Kind == telemetry.KindRunEnd {
			ends[e.Engine] = true
		}
	}
	for _, engine := range []string{"pool.node", "relax", "omp.node"} {
		if !ends[engine] {
			t.Errorf("no run_end recorded for %s", engine)
		}
	}
	if buf.Len() == 0 {
		t.Error("JSONL sink recorded nothing")
	}
}

// TestDisabledProbeAllocFree is the other half of the observability
// contract: with Options.Probe left nil the sequential engines must not
// allocate at all — the probe layer's presence is free when it is off.
func TestDisabledProbeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; asserted in the non-race build")
	}
	g := testGraph(t)
	for _, c := range []struct {
		name string
		run  func(*graph.Graph, bp.Options) bp.Result
	}{
		{"bp.node", bp.RunNode},
		{"bp.edge", bp.RunEdge},
		{"bp.residual", bp.RunResidual},
	} {
		allocs := testing.AllocsPerRun(5, func() {
			c.run(g, bp.Options{WorkQueue: true})
		})
		if allocs != 0 {
			t.Errorf("%s with nil probe: %.1f allocs/run, want 0", c.name, allocs)
		}
	}
}

// BenchmarkProbeOverhead compares a run with no probe against the same
// run feeding the ring recorder — the number EXPERIMENTS.md quotes for
// the cost of leaving telemetry on.
func BenchmarkProbeOverhead(b *testing.B) {
	g := testGraph(b)
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bp.RunNode(g, bp.Options{WorkQueue: true})
		}
	})
	b.Run("recorder", func(b *testing.B) {
		rec := telemetry.NewRecorder(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bp.RunNode(g, bp.Options{WorkQueue: true, Probe: rec})
		}
	})
}
