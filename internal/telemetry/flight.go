package telemetry

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
)

// DefaultFlightDepth is the records retained when NewFlightRecorder is
// given a non-positive depth: enough history to cover a burst of
// anomalies between scrapes at a bounded memory cost (records are a few
// KB each).
const DefaultFlightDepth = 64

// FlightRecord is one retained anomalous request: the full span tree,
// the convergence trajectory, the query labels and the reasons the
// trace qualified. It is immutable once captured.
type FlightRecord struct {
	Kind        string       `json:"kind"` // always "flight" (JSONL discriminator)
	ID          uint64       `json:"id"`
	Name        string       `json:"name"`
	Reasons     []string     `json:"reasons"`
	Engine      string       `json:"engine,omitempty"`
	Variant     string       `json:"variant,omitempty"`
	Warm        bool         `json:"warm"`
	StartUnixNs int64        `json:"start_unix_ns"`
	WallNs      int64        `json:"wall_ns"`
	Iterations  int32        `json:"iterations"`
	FinalDelta  float32      `json:"final_delta"`
	Spans       []FlightSpan `json:"spans"`
	Trajectory  []TracePoint `json:"trajectory"`
	LostSpans   int32        `json:"lost_spans,omitempty"`
	LostPoints  int32        `json:"lost_points,omitempty"`
}

// FlightSpan is one span of a flight record's tree. Parent is the index
// of the enclosing span in the record's Spans slice, -1 at the root
// level; times are nanosecond offsets from the trace start.
type FlightSpan struct {
	Name    string `json:"name"`
	Parent  int32  `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// FlightRecorder is the bounded ring that retains flight records: a
// slot array written lock-free (one atomic fetch-add claims a slot, one
// atomic pointer store publishes the record), so capture on the serving
// path never queues behind a reader. Once the ring wraps, the oldest
// record is overwritten — retention is "the last depth anomalies", a
// fixed memory budget no incident can blow through.
//
// Readers snapshot the published pointers without stopping writers; a
// scrape racing a wrap can observe a slot's newer record in an older
// position, which is harmless for a diagnostic dump (records carry
// their own IDs and timestamps).
type FlightRecorder struct {
	slots    []atomic.Pointer[FlightRecord]
	pos      atomic.Uint64
	captured atomic.Int64
	sink     atomic.Pointer[JSONLWriter]
}

// NewFlightRecorder returns a recorder retaining the last depth records
// (<= 0 means DefaultFlightDepth).
func NewFlightRecorder(depth int) *FlightRecorder {
	if depth <= 0 {
		depth = DefaultFlightDepth
	}
	return &FlightRecorder{slots: make([]atomic.Pointer[FlightRecord], depth)}
}

// SetSink attaches a JSONL writer: every captured record is also
// appended to it as one "kind":"flight" line, interleaving cleanly with
// the event stream of the -trace-out file.
func (f *FlightRecorder) SetSink(w *JSONLWriter) {
	if f == nil {
		return
	}
	f.sink.Store(w)
}

// Capture publishes one record into the ring (and the JSONL sink when
// attached). Safe for concurrent use; nil recorder and nil record are
// no-ops.
func (f *FlightRecorder) Capture(rec *FlightRecord) {
	if f == nil || rec == nil {
		return
	}
	i := f.pos.Add(1) - 1
	f.slots[i%uint64(len(f.slots))].Store(rec)
	f.captured.Add(1)
	if w := f.sink.Load(); w != nil {
		if b, err := json.Marshal(rec); err == nil {
			w.WriteRaw(b)
		}
	}
}

// Captured returns the total records captured since creation (retained
// or since overwritten).
func (f *FlightRecorder) Captured() int64 {
	if f == nil {
		return 0
	}
	return f.captured.Load()
}

// Depth returns the ring capacity.
func (f *FlightRecorder) Depth() int {
	if f == nil {
		return 0
	}
	return len(f.slots)
}

// Records returns the retained records, oldest first.
func (f *FlightRecorder) Records() []*FlightRecord {
	if f == nil {
		return nil
	}
	n := uint64(len(f.slots))
	pos := f.pos.Load()
	start := uint64(0)
	if pos > n {
		start = pos - n
	}
	out := make([]*FlightRecord, 0, pos-start)
	for i := start; i < pos; i++ {
		if rec := f.slots[i%n].Load(); rec != nil {
			out = append(out, rec)
		}
	}
	return out
}

// flightDump is the wire shape of the /debug/flight endpoint.
type flightDump struct {
	Captured int64           `json:"captured"`
	Depth    int             `json:"depth"`
	Records  []*FlightRecord `json:"records"`
}

// Handler serves the retained records as one JSON document — the
// /debug/flight endpoint of the ops plane. Valid on a nil recorder
// (an empty dump), so the ops server can always mount the route.
func (f *FlightRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		recs := f.Records()
		if recs == nil {
			recs = []*FlightRecord{}
		}
		json.NewEncoder(w).Encode(flightDump{
			Captured: f.Captured(),
			Depth:    f.Depth(),
			Records:  recs,
		})
	})
}
