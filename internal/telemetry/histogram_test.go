package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestLogBounds(t *testing.T) {
	b := LogBounds(1e-6, 2, 4)
	want := []float64{1e-6, 2e-6, 4e-6, 8e-6}
	if len(b) != len(want) {
		t.Fatalf("LogBounds len = %d, want %d", len(b), len(want))
	}
	for i := range b {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Errorf("bound[%d] = %g, want %g", i, b[i], want[i])
		}
	}
	if n := len(DefaultLatencyBounds); n != 27 {
		t.Errorf("DefaultLatencyBounds has %d buckets, want 27", n)
	}
	// 2^26 µs ≈ 67s: the default grid must span sub-microsecond to
	// over-a-minute so no serving latency falls off either end.
	if last := DefaultLatencyBounds[len(DefaultLatencyBounds)-1]; last < 60 {
		t.Errorf("top latency bound %g s does not cover a minute", last)
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram: count %d quantile %g", h.Count(), h.Quantile(0.5))
	}
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 106.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %g, want %g", got, want)
	}
	// Median lands in the (1,2] bucket; interpolation keeps it inside.
	if q := h.Quantile(0.5); q <= 1 || q > 2 {
		t.Errorf("p50 = %g, want in (1,2]", q)
	}
	// The overflow observation clamps to the top bound instead of
	// inventing mass beyond the grid.
	if q := h.Quantile(0.999); q != 8 {
		t.Errorf("p99.9 = %g, want clamp to top bound 8", q)
	}
}

func TestHistogramWriteProm(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	h.Observe(0.5)
	h.Observe(3)

	var sb strings.Builder
	h.WriteProm(&sb, "x_seconds", `stage="run"`)
	got := sb.String()
	for _, want := range []string{
		`x_seconds_bucket{stage="run",le="1"} 1`,
		`x_seconds_bucket{stage="run",le="4"} 2`,
		`x_seconds_bucket{stage="run",le="+Inf"} 2`,
		`x_seconds_sum{stage="run"} 3.5`,
		`x_seconds_count{stage="run"} 2`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("WriteProm missing %q:\n%s", want, got)
		}
	}
	// The empty (2,4] cumulative still appears... but the zero-count
	// le="2" line is elided only when nothing at or below it; cumulative
	// counts must be monotonic.
	if strings.Contains(got, `le="2"} 0`) {
		t.Errorf("cumulative bucket below an observation reported 0:\n%s", got)
	}
}

// TestHistVecConcurrent hammers one histVec key set from many goroutines;
// run under -race this pins the double-checked map creation.
func TestHistVecConcurrent(t *testing.T) {
	var m Metrics
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.ObserveStage("admit", 0.001)
				m.ObserveStage("run", 0.01)
				m.Emit(Event{Kind: KindServe, Engine: "serve.query",
					Impl: "pool.node", BusyNs: int64(1000 * (i + 1))})
			}
		}(w)
	}
	wg.Wait()
	var sb strings.Builder
	m.WriteText(&sb)
	got := sb.String()
	for _, want := range []string{
		`credo_serve_stage_seconds_count{stage="admit"} 1600`,
		`credo_serve_stage_seconds_count{stage="run"} 1600`,
		`credo_serve_latency_seconds_count{engine="pool.node",variant="vanilla",start="cold"} 1600`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestLatencyQuantileExposition(t *testing.T) {
	var m Metrics
	for i := 0; i < 100; i++ {
		// 1..100 ms spread: p50 ≈ 50 ms, p99 ≈ 99 ms on the log grid.
		m.Emit(Event{Kind: KindServe, Engine: "serve.query", Impl: "relax",
			Variant: "damped", Warm: true, BusyNs: int64(i+1) * 1e6})
	}
	var sb strings.Builder
	m.WriteText(&sb)
	got := sb.String()
	if !strings.Contains(got, `credo_serve_latency_quantile_seconds{engine="relax",variant="damped",start="warm",q="0.5"}`) {
		t.Fatalf("missing p50 gauge:\n%s", got)
	}
	if !strings.Contains(got, `q="0.99"`) || !strings.Contains(got, `q="0.95"`) {
		t.Errorf("missing p95/p99 gauges")
	}
}
