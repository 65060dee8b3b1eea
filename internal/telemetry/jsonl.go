package telemetry

import (
	"bufio"
	"io"
	"strconv"
	"sync"
	"time"
)

// JSONLWriter streams every event as one JSON object per line — the
// event-stream format of the -trace-out flag. Encoding is hand-rolled
// with strconv appenders into a reused buffer (encoding/json's
// reflection would allocate per event), and writes go through a
// bufio.Writer that is flushed on every KindRunEnd so the file is
// complete the moment a run finishes. Safe for concurrent emission.
type JSONLWriter struct {
	mu    sync.Mutex
	w     *bufio.Writer
	buf   []byte
	seq   int64
	start time.Time
}

// NewJSONLWriter returns a writer streaming onto w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{w: bufio.NewWriter(w), start: time.Now()}
}

// Emit implements Probe.
func (j *JSONLWriter) Emit(e Event) {
	j.mu.Lock()
	j.seq++
	b := j.buf[:0]
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, j.seq, 10)
	b = append(b, `,"t_ns":`...)
	b = strconv.AppendInt(b, time.Since(j.start).Nanoseconds(), 10)
	b = append(b, `,"kind":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","engine":"`...)
	b = append(b, e.Engine...) // engine names are plain identifiers, no escaping needed
	b = append(b, '"')
	switch e.Kind {
	case KindRunStart:
		b = appendInt(b, "items", e.Items)
		b = appendFloat(b, "threshold", e.Threshold)
	case KindIteration:
		b = appendInt(b, "iter", int64(e.Iter))
		b = appendFloat(b, "delta", e.Delta)
		b = appendInt(b, "updated", e.Updated)
		b = appendInt(b, "edges", e.Edges)
		if e.Active >= 0 {
			b = appendInt(b, "active", e.Active)
		}
		b = appendInt(b, "items", e.Items)
		if e.StaleDrops != 0 || e.Wasted != 0 || e.Contention != 0 {
			b = appendInt(b, "stale_drops", e.StaleDrops)
			b = appendInt(b, "wasted_updates", e.Wasted)
			b = appendInt(b, "queue_contention", e.Contention)
		}
		if e.FastPath != 0 || e.Rescales != 0 {
			b = appendInt(b, "kernel_fast_path", e.FastPath)
			b = appendInt(b, "kernel_rescales", e.Rescales)
		}
	case KindRunEnd:
		b = appendInt(b, "iter", int64(e.Iter))
		b = appendFloat(b, "delta", e.Delta)
		b = appendInt(b, "updated", e.Updated)
		b = appendInt(b, "edges", e.Edges)
		b = append(b, `,"converged":`...)
		b = strconv.AppendBool(b, e.Converged)
		if e.StaleDrops != 0 || e.Wasted != 0 || e.Contention != 0 {
			b = appendInt(b, "stale_drops", e.StaleDrops)
			b = appendInt(b, "wasted_updates", e.Wasted)
			b = appendInt(b, "queue_contention", e.Contention)
		}
	case KindWorker:
		b = appendInt(b, "worker", int64(e.Worker))
		b = appendInt(b, "busy_ns", e.BusyNs)
		b = appendInt(b, "wall_ns", e.WallNs)
	case KindIngest:
		if e.Worker >= 0 {
			b = appendInt(b, "chunk", int64(e.Worker))
		} else {
			b = appendInt(b, "chunks", int64(e.Iter))
			b = appendInt(b, "total_bytes", e.Items)
			b = appendInt(b, "wall_ns", e.WallNs)
			b = appendInt(b, "parse_wall_ns", e.Active)
		}
		b = appendInt(b, "lines", e.Updated)
		b = appendInt(b, "bytes", e.Edges)
		b = appendInt(b, "busy_ns", e.BusyNs)
	case KindServe:
		switch e.Engine {
		case "serve.query":
			b = append(b, `,"warm":`...)
			b = strconv.AppendBool(b, e.Warm)
			b = append(b, `,"converged":`...)
			b = strconv.AppendBool(b, e.Converged)
			b = appendInt(b, "updated", e.Updated)
			b = appendInt(b, "iter", int64(e.Iter))
			if e.Impl != "" {
				// Engine/variant labels are plain identifiers from the
				// serving layer's fixed sets, no escaping needed.
				b = append(b, `,"impl":"`...)
				b = append(b, e.Impl...)
				b = append(b, '"')
			}
			if e.Variant != "" {
				b = append(b, `,"variant":"`...)
				b = append(b, e.Variant...)
				b = append(b, '"')
			}
		case "serve.update":
			// A graph delta batch: Iter carries the applied mutation
			// count, Updated the belief updates of the warm snapshot's
			// re-convergence (0 when it was invalidated instead).
			b = append(b, `,"warm":`...)
			b = strconv.AppendBool(b, e.Warm)
			b = append(b, `,"converged":`...)
			b = strconv.AppendBool(b, e.Converged)
			b = appendInt(b, "updated", e.Updated)
			b = appendInt(b, "applied", int64(e.Iter))
		case "serve.shed":
			b = appendInt(b, "retry_after_s", e.RetryAfterSec)
			b = appendInt(b, "waiting", e.Waiting)
		}
		b = appendInt(b, "depth", e.Active)
		b = appendInt(b, "capacity", e.Items)
		b = appendInt(b, "wall_ns", e.BusyNs)
	}
	b = append(b, '}', '\n')
	j.buf = b
	j.w.Write(b)
	if e.Kind == KindRunEnd || e.Kind == KindServe {
		j.w.Flush()
	}
	j.mu.Unlock()
}

// WriteRaw appends one pre-encoded JSON document as its own line and
// flushes — the flight recorder's path into the event stream, so flight
// dumps land in file order with the events that produced them.
func (j *JSONLWriter) WriteRaw(line []byte) {
	j.mu.Lock()
	j.w.Write(line)
	j.w.WriteByte('\n')
	j.w.Flush()
	j.mu.Unlock()
}

// Flush forces any buffered lines onto the underlying writer.
func (j *JSONLWriter) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.w.Flush()
}

func appendInt(b []byte, key string, v int64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, v, 10)
}

func appendFloat(b []byte, key string, v float32) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendFloat(b, float64(v), 'g', -1, 32)
}
