package telemetry

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Metrics is the live-export sink: a fixed set of counters and gauges
// updated atomically on every event and rendered on demand as a
// Prometheus-style text exposition (WriteText / Handler) or an expvar
// map. Attach one probe per process and scrape it from the -http
// endpoint while a long run is in flight.
type Metrics struct {
	runs       atomic.Int64  // completed runs (KindRunEnd)
	converged  atomic.Int64  // completed runs that converged
	iterations atomic.Int64  // iteration/batch boundaries observed
	updated    atomic.Int64  // node belief updates
	edges      atomic.Int64  // edge message computations
	staleDrops atomic.Int64  // relaxed-queue entries superseded before pop
	wasted     atomic.Int64  // relaxed-queue pops below threshold
	contention atomic.Int64  // failed TryLock acquisitions
	fastPath   atomic.Int64  // kernel linear fast-path folds
	rescales   atomic.Int64  // kernel max-rescales
	lastDelta  atomic.Uint64 // float64 bits of the last residual norm
	lastActive atomic.Int64  // last frontier/queue occupancy (-1 unknown)
	lastItems  atomic.Int64  // last item-space size

	ingestBytes atomic.Int64 // bytes consumed by the ingest chunk parsers
	ingestLines atomic.Int64 // data lines parsed by the ingest chunk parsers

	servQueries   atomic.Int64 // served queries completed (serve.query)
	servWarm      atomic.Int64 // served queries that warm-started
	servUpdates   atomic.Int64 // graph delta batches applied (serve.update)
	servMutations atomic.Int64 // mutations landed across all delta batches
	servShed      atomic.Int64 // requests rejected by admission control
	servLoads     atomic.Int64 // graphs loaded into the serving registry
	servDepth     atomic.Int64 // last observed admission depth (in-flight + waiting)
	servWallNs    atomic.Int64 // wall clock of the last served query
	servFlushes   atomic.Int64 // batched flushes (serve.batch)
	servBatched   atomic.Int64 // lanes occupied across batch flushes
	servWaiting   atomic.Int64 // waiting-line depth at the last shed

	// Histogram families, created on first use so the zero-value
	// Metrics literal every caller builds keeps working.
	histOnce sync.Once
	lat      *histVec[LatencyKey] // serve latency by query labels
	latAll   *Histogram           // aggregate across all label sets
	stage    *histVec[string]     // per-pipeline-stage wall (trace spans)

	mu         sync.Mutex
	lastEngine string
}

// LatencyKey labels one served-latency series.
type LatencyKey struct {
	Engine  string // resolved implementation ("residual", "pool.node", ...)
	Variant string // update rule ("vanilla", "damped", "circular")
	Warm    bool   // warm-start vs cold
}

// hists lazily builds the histogram families.
func (m *Metrics) hists() {
	m.histOnce.Do(func() {
		m.lat = newHistVec[LatencyKey](DefaultLatencyBounds)
		m.latAll = NewHistogram(DefaultLatencyBounds)
		m.stage = newHistVec[string](DefaultLatencyBounds)
	})
}

// ObserveStage records one pipeline stage's wall time (seconds) into
// the stage histogram family — the tracer feeds every finished trace's
// spans through here.
func (m *Metrics) ObserveStage(stage string, seconds float64) {
	m.hists()
	m.stage.at(stage).Observe(seconds)
}

// Emit implements Probe.
func (m *Metrics) Emit(e Event) {
	switch e.Kind {
	case KindRunStart:
		m.mu.Lock()
		m.lastEngine = e.Engine
		m.mu.Unlock()
		m.lastItems.Store(e.Items)
	case KindIteration:
		m.iterations.Add(1)
		// Iteration events carry per-boundary increments for Updated and
		// Edges (the Event contract), so summing them yields run totals;
		// the relaxed/kernel counter groups arrive as running totals and
		// go through storeMax instead.
		if e.Updated > 0 {
			m.updated.Add(e.Updated)
		}
		if e.Edges > 0 {
			m.edges.Add(e.Edges)
		}
		m.lastDelta.Store(math.Float64bits(float64(e.Delta)))
		m.lastActive.Store(e.Active)
		if e.Items > 0 {
			m.lastItems.Store(e.Items)
		}
		m.storeMax(&m.staleDrops, e.StaleDrops)
		m.storeMax(&m.wasted, e.Wasted)
		m.storeMax(&m.contention, e.Contention)
		m.storeMax(&m.fastPath, e.FastPath)
		m.storeMax(&m.rescales, e.Rescales)
	case KindRunEnd:
		m.runs.Add(1)
		if e.Converged {
			m.converged.Add(1)
		}
		m.lastDelta.Store(math.Float64bits(float64(e.Delta)))
		m.storeMax(&m.staleDrops, e.StaleDrops)
		m.storeMax(&m.wasted, e.Wasted)
		m.storeMax(&m.contention, e.Contention)
	case KindIngest:
		// Only per-chunk events (Worker >= 0) carry increments; the phase
		// summary repeats the totals and would double-count.
		if e.Worker >= 0 {
			m.ingestBytes.Add(e.Edges)
			m.ingestLines.Add(e.Updated)
		}
	case KindServe:
		switch e.Engine {
		case "serve.query":
			m.servQueries.Add(1)
			if e.Warm {
				m.servWarm.Add(1)
			}
			m.servWallNs.Store(e.BusyNs)
			m.servDepth.Store(e.Active)
			m.hists()
			key := LatencyKey{Engine: e.Impl, Variant: e.Variant, Warm: e.Warm}
			if key.Engine == "" {
				key.Engine = "unknown"
			}
			if key.Variant == "" {
				key.Variant = "vanilla"
			}
			secs := float64(e.BusyNs) / 1e9
			m.lat.at(key).Observe(secs)
			m.latAll.Observe(secs)
		case "serve.shed":
			m.servShed.Add(1)
			m.servDepth.Store(e.Active)
			m.servWaiting.Store(e.Waiting)
		case "serve.batch":
			// One event per flush: Active carries the lane occupancy, so
			// occupancy/flushes is the mean batch fill.
			m.servFlushes.Add(1)
			m.servBatched.Add(e.Active)
		case "serve.load":
			m.servLoads.Add(1)
		case "serve.update":
			// One event per applied delta batch: Iter carries the number
			// of mutations that landed, Updated the belief updates the
			// warm re-convergence spent.
			m.servUpdates.Add(1)
			m.servMutations.Add(int64(e.Iter))
		}
	}
}

// storeMax raises c to v when v is larger — cumulative counter groups
// arrive as running totals, so the largest observation is the total.
func (m *Metrics) storeMax(c *atomic.Int64, v int64) {
	for {
		cur := c.Load()
		if v <= cur || c.CompareAndSwap(cur, v) {
			return
		}
	}
}

// WriteText renders the Prometheus text exposition format (version
// 0.0.4: # HELP/# TYPE comments and name value lines).
func (m *Metrics) WriteText(w io.Writer) {
	m.mu.Lock()
	engine := m.lastEngine
	m.mu.Unlock()
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		fmt.Fprintf(w, "%s %d\n", name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		fmt.Fprintf(w, "%s %g\n", name, v)
	}
	counter("credo_runs_total", "Completed propagation runs.", m.runs.Load())
	counter("credo_runs_converged_total", "Completed runs that converged.", m.converged.Load())
	counter("credo_iterations_total", "Iteration/batch boundaries observed.", m.iterations.Load())
	counter("credo_belief_updates_total", "Node belief updates.", m.updated.Load())
	counter("credo_edge_messages_total", "Edge message computations.", m.edges.Load())
	counter("credo_relax_stale_drops_total", "Relaxed-queue entries superseded before pop.", m.staleDrops.Load())
	counter("credo_relax_wasted_updates_total", "Relaxed-queue pops recomputed below threshold.", m.wasted.Load())
	counter("credo_queue_contention_total", "Failed TryLock acquisitions on sharded queues.", m.contention.Load())
	counter("credo_kernel_fast_path_total", "Kernel linear fast-path folds.", m.fastPath.Load())
	counter("credo_kernel_rescales_total", "Kernel max-rescales of linear products.", m.rescales.Load())
	counter("credo_ingest_bytes_total", "Bytes consumed by the mtxbp ingest parsers.", m.ingestBytes.Load())
	counter("credo_ingest_lines_total", "Data lines parsed by the mtxbp ingest parsers.", m.ingestLines.Load())
	counter("credo_serve_queries_total", "Posterior queries served.", m.servQueries.Load())
	counter("credo_serve_warm_total", "Served queries that re-converged from a warm-start snapshot.", m.servWarm.Load())
	counter("credo_serve_shed_total", "Requests rejected by admission control.", m.servShed.Load())
	counter("credo_serve_loads_total", "Graphs loaded into the serving registry.", m.servLoads.Load())
	counter("credo_serve_updates_total", "Graph delta batches applied to residents.", m.servUpdates.Load())
	counter("credo_serve_mutations_total", "Mutations landed across all delta batches.", m.servMutations.Load())
	counter("credo_serve_batch_flushes", "Batched flushes executed.", m.servFlushes.Load())
	counter("credo_serve_batch_occupancy", "Lanes occupied across batch flushes (occupancy/flushes = mean fill).", m.servBatched.Load())
	gauge("credo_serve_depth", "Admission depth (in-flight + waiting) at the last serve event.", float64(m.servDepth.Load()))
	gauge("credo_serve_waiting", "Admission waiting-line depth at the last shed.", float64(m.servWaiting.Load()))
	gauge("credo_serve_last_wall_ns", "Wall clock of the last served query in nanoseconds.", float64(m.servWallNs.Load()))
	m.writeHistograms(w)
	// The residual originates as a float32; format at 32-bit precision so
	// the exposition shows 0.0008, not the widened float64 digits.
	fmt.Fprintf(w, "# HELP credo_last_delta Global residual norm at the last boundary.\n# TYPE credo_last_delta gauge\n")
	fmt.Fprintf(w, "credo_last_delta %s\n",
		strconv.FormatFloat(math.Float64frombits(m.lastDelta.Load()), 'g', -1, 32))
	gauge("credo_active_items", "Frontier/queue occupancy at the last boundary.", float64(m.lastActive.Load()))
	gauge("credo_total_items", "Item-space size of the last observed run.", float64(m.lastItems.Load()))
	if engine != "" {
		fmt.Fprintf(w, "# HELP credo_engine_info Engine of the last observed run.\n# TYPE credo_engine_info gauge\ncredo_engine_info{engine=%q} 1\n", engine)
	}
}

// quantiles exported per latency series alongside the raw buckets.
var latencyQuantiles = []float64{0.5, 0.95, 0.99}

// writeHistograms renders the latency and stage histogram families.
// Families that never observed anything are elided entirely, so
// non-serving processes keep their exposition unchanged.
func (m *Metrics) writeHistograms(w io.Writer) {
	m.hists() // synchronizes with concurrent emitters creating the families
	if keys := m.lat.keys(); len(keys) > 0 {
		sort.Slice(keys, func(i, j int) bool {
			a, b := keys[i], keys[j]
			if a.Engine != b.Engine {
				return a.Engine < b.Engine
			}
			if a.Variant != b.Variant {
				return a.Variant < b.Variant
			}
			return !a.Warm && b.Warm
		})
		fmt.Fprintf(w, "# HELP credo_serve_latency_seconds Served query latency.\n# TYPE credo_serve_latency_seconds histogram\n")
		for _, k := range keys {
			m.lat.at(k).WriteProm(w, "credo_serve_latency_seconds", latencyLabels(k))
		}
		fmt.Fprintf(w, "# HELP credo_serve_latency_quantile_seconds Latency quantiles interpolated from the log buckets.\n# TYPE credo_serve_latency_quantile_seconds gauge\n")
		for _, k := range keys {
			h := m.lat.at(k)
			for _, q := range latencyQuantiles {
				fmt.Fprintf(w, "credo_serve_latency_quantile_seconds{%s,q=\"%g\"} %g\n",
					latencyLabels(k), q, h.Quantile(q))
			}
		}
	}
	if keys := m.stage.keys(); len(keys) > 0 {
		sort.Strings(keys)
		fmt.Fprintf(w, "# HELP credo_serve_stage_seconds Wall time per serving-pipeline stage (trace spans).\n# TYPE credo_serve_stage_seconds histogram\n")
		for _, k := range keys {
			m.stage.at(k).WriteProm(w, "credo_serve_stage_seconds", fmt.Sprintf("stage=%q", k))
		}
	}
}

// latencyLabels renders a LatencyKey as a Prometheus label set. The
// warm/cold boolean surfaces as the categorical name the histogram
// contract promises.
func latencyLabels(k LatencyKey) string {
	start := "cold"
	if k.Warm {
		start = "warm"
	}
	return fmt.Sprintf("engine=%q,variant=%q,start=%q", k.Engine, k.Variant, start)
}

// Handler returns an http.Handler serving the text exposition.
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.WriteText(w)
	})
}

// snapshot returns the expvar view of the metrics.
func (m *Metrics) snapshot() any {
	m.mu.Lock()
	engine := m.lastEngine
	m.mu.Unlock()
	m.hists()
	latCount := m.latAll.Count()
	p50, p95, p99 := m.latAll.Quantile(0.5), m.latAll.Quantile(0.95), m.latAll.Quantile(0.99)
	return map[string]any{
		"serve_latency_count":   latCount,
		"serve_latency_p50":     p50,
		"serve_latency_p95":     p95,
		"serve_latency_p99":     p99,
		"serve_waiting":         m.servWaiting.Load(),
		"runs":                  m.runs.Load(),
		"runs_converged":        m.converged.Load(),
		"iterations":            m.iterations.Load(),
		"belief_updates":        m.updated.Load(),
		"edge_messages":         m.edges.Load(),
		"stale_drops":           m.staleDrops.Load(),
		"wasted_updates":        m.wasted.Load(),
		"queue_contention":      m.contention.Load(),
		"kernel_fast_path":      m.fastPath.Load(),
		"kernel_rescales":       m.rescales.Load(),
		"ingest_bytes":          m.ingestBytes.Load(),
		"ingest_lines":          m.ingestLines.Load(),
		"serve_queries":         m.servQueries.Load(),
		"serve_warm":            m.servWarm.Load(),
		"serve_shed":            m.servShed.Load(),
		"serve_loads":           m.servLoads.Load(),
		"serve_updates":         m.servUpdates.Load(),
		"serve_mutations":       m.servMutations.Load(),
		"serve_batch_flushes":   m.servFlushes.Load(),
		"serve_batch_occupancy": m.servBatched.Load(),
		"serve_depth":           m.servDepth.Load(),
		"serve_wall_ns":         m.servWallNs.Load(),
		"last_delta":            math.Float64frombits(m.lastDelta.Load()),
		"active_items":          m.lastActive.Load(),
		"total_items":           m.lastItems.Load(),
		"engine":                engine,
	}
}

// The process has one /debug/vars namespace and expvar forbids
// duplicate names, so "credo.telemetry" is registered once as an
// indirection through this pointer: the most recently published
// Metrics answers. A daemon publishes exactly one Metrics for its
// lifetime; the indirection exists so tests that each build their own
// ops server read their own instance regardless of run order.
var (
	expvarOnce    sync.Once
	expvarCurrent atomic.Pointer[Metrics]
)

// PublishExpvar exposes the metrics under the "credo.telemetry" expvar
// name, replacing any previously published instance.
func (m *Metrics) PublishExpvar() {
	expvarCurrent.Store(m)
	expvarOnce.Do(func() {
		expvar.Publish("credo.telemetry", expvar.Func(func() any {
			return expvarCurrent.Load().snapshot()
		}))
	})
}

// Server is a live telemetry endpoint: /metrics (Prometheus text),
// /debug/vars (expvar), /debug/pprof (runtime profiling) and
// /debug/flight (the flight recorder's retained anomalous-request
// dumps), all from the standard library.
type Server struct {
	Addr string // actual listen address (useful with ":0")
	srv  *http.Server
	ln   net.Listener
}

// NewServer binds addr and returns the server ready to Start. The
// metrics probe is published to expvar as a side effect so /debug/vars
// carries the same numbers as /metrics. flight may be nil — the
// /debug/flight route always exists and answers with an empty dump.
func NewServer(addr string, m *Metrics, flight *FlightRecorder) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	m.PublishExpvar()
	mux := http.NewServeMux()
	mux.Handle("/metrics", m.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/debug/flight", flight.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return &Server{Addr: ln.Addr().String(), srv: &http.Server{Handler: mux}, ln: ln}, nil
}

// Start serves in a background goroutine until Close.
func (s *Server) Start() {
	go s.srv.Serve(s.ln)
}

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }
