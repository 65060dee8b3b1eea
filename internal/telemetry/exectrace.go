package telemetry

import (
	"context"
	"runtime/trace"
)

// ExecTrace is the Probe sink for the Go execution tracer. While a trace
// is being recorded (go test -trace, or /debug/pprof/trace on the
// telemetry server) every event becomes one trace.Log entry, categorized
// by the emitting engine and carrying the event kind, so run and
// iteration boundaries line up with the goroutine, GC and scheduler
// timeline. With the tracer off, Emit costs one check.
type ExecTrace struct{}

// Emit implements Probe.
func (ExecTrace) Emit(e Event) {
	if trace.IsEnabled() {
		trace.Log(context.Background(), e.Engine, e.Kind.String())
	}
}
