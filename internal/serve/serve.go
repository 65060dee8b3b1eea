// Package serve is the long-lived inference layer behind the credoserved
// daemon: graphs load once into a resident registry and every posterior
// query runs against them in place, so the engines built for repeated
// inference over a resident graph finally serve repeated inference.
//
// Three pieces make concurrent serving cheap and safe:
//
//   - Evidence overlays. No query writes the resident graph (only
//     /v1/update does); each query leases a structural clone from a
//     per-graph pool (shared adjacency and joint matrices, private
//     numeric arrays), re-bases its node state, clamps its own evidence
//     and runs propagation there. Concurrent queries never share kernel
//     arenas or observe each other's clamps. A warm lease copies only
//     the rows its overlay wrote plus the rows a journal says changed
//     since it last re-based, so it costs the frontier, not the graph.
//
//   - Warm starts. After any converged query the resident keeps the
//     fixpoint beliefs together with the evidence they were converged
//     under, patching only the rows the query changed or moved. The next
//     query diffs its evidence against the snapshot and seeds only the
//     perturbed frontier — the changed nodes plus their out-neighbours —
//     into the residual/relaxed queues (bp.RunResidualFrom /
//     relaxbp.RunFrom), re-converging from the old fixpoint instead of
//     from uniform priors. The residual scheduling papers (Aksenov et
//     al.; Van der Merwe et al.) make this nearly free: unperturbed
//     residuals stay below threshold and never enter the queue. Cold
//     start is the automatic fallback, and warm results are locked
//     within WarmTol of a cold start by the equivalence tests.
//
//   - Admission control. A bounded two-stage admission queue (execution
//     slots plus a waiting line) sheds load with 429 + Retry-After once
//     the line fills, so a burst degrades into fast rejections instead of
//     unbounded queueing. Every outcome is observable through the
//     internal/telemetry probe set in Config.Options (KindServe events,
//     Prometheus counters on the ops sidecar), the same probe every
//     engine run reports to; a sampled request's trace joins the probe
//     chain of its own run and derives the engine span from it.
package serve

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"credo/internal/bif"
	"credo/internal/bp"
	"credo/internal/core"
	"credo/internal/graph"
	"credo/internal/mtxbp"
	"credo/internal/telemetry"
	"credo/internal/xmlbif"
)

// WarmTol is the locked bound on the per-node L∞ belief distance between
// a warm-started query and a cold start of the same evidence set. Both
// runs stop once every pending residual falls below the element
// threshold, so each sits within a small multiple of the threshold from
// the unique fixpoint; ten thresholds bounds their distance with margin
// (measured ~3x on the regression graphs), the same reasoning as the
// enginetest cross-engine tolerance.
const WarmTol = 10 * bp.DefaultThreshold

// Config shapes a serving instance.
type Config struct {
	// Selector drives per-request engine selection for cold starts when
	// the request does not override the engine: the internal/ml
	// classifier (when loaded) decides the Node/Edge paradigm and the
	// platform rule the backend, exactly as in batch runs.
	Selector core.Selector

	// Options is the propagation parameter template applied to every
	// query, batch and update run (threshold, iteration cap, kernel
	// config). Its Probe receives both the engines' run telemetry and
	// the serving layer's KindServe and ingest events; nil disables
	// instrumentation. A sampled request's trace joins the probe chain
	// of its own run only. Update and batched runs emit while holding
	// the resident's lock, so Emit must not call back into the server
	// on its own goroutine.
	Options bp.Options

	// Workers sizes the worker teams of the relax and pool engines when
	// a query routes to them. Zero means runtime.NumCPU (resolved by the
	// engines themselves).
	Workers int

	// MaxInFlight bounds the queries executing concurrently. Zero means
	// DefaultMaxInFlight.
	MaxInFlight int

	// MaxQueue bounds the admitted-but-waiting line beyond MaxInFlight;
	// requests arriving past it are shed with 429. Zero means
	// 4*MaxInFlight.
	MaxQueue int

	// RetryAfter is the hint returned with shed responses. Zero means
	// one second.
	RetryAfter time.Duration

	// Tracer, when non-nil, samples requests into request-scoped traces:
	// the HTTP layer opens a trace per sampled query and every stage the
	// request crosses (admission, decode, staging, the engine run,
	// extraction, encoding) records a span on it. Anomalous traces land
	// in the tracer's flight recorder. Nil disables tracing entirely.
	Tracer *telemetry.Tracer

	// MRF doubles directed BIF/XMLBIF networks into MRF form on load, so
	// evidence flows against edge direction (recommended; mtxbp inputs
	// are stored pre-doubled).
	MRF bool

	// IngestWorkers is the parallel chunked ingest fan-out for mtxbp
	// loads (0 = NumCPU, 1 = sequential).
	IngestWorkers int
}

// DefaultMaxInFlight is the execution-slot count when Config leaves
// MaxInFlight zero: enough to keep a small host busy without thrashing
// the worker teams.
const DefaultMaxInFlight = 4

// Server is the resident-graph registry plus the admission gate. It is
// safe for concurrent use; the HTTP layer in http.go is a thin shell
// over it.
type Server struct {
	cfg Config
	adm *admission

	// variant labels every query's latency observation with the resolved
	// message-update rule; the config template never changes after New,
	// so it is resolved once.
	variant string

	mu     sync.RWMutex
	graphs map[string]*Resident
}

// New returns an empty serving instance.
func New(cfg Config) *Server {
	inflight := cfg.MaxInFlight
	if inflight <= 0 {
		inflight = DefaultMaxInFlight
	}
	maxQueue := cfg.MaxQueue
	if maxQueue <= 0 {
		maxQueue = 4 * inflight
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	return &Server{
		cfg:     cfg,
		adm:     newAdmission(inflight, maxQueue),
		variant: cfg.Options.ResolveVariant().Variant.String(),
		graphs:  make(map[string]*Resident),
	}
}

// Load registers a built graph under name, replacing any previous
// resident with that name. The graph must validate; the server takes
// ownership (callers must not keep mutating it).
func (s *Server) Load(name string, g *graph.Graph) (*Resident, error) {
	return s.load(name, g, 0)
}

func (s *Server) load(name string, g *graph.Graph, wall time.Duration) (*Resident, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: empty graph name")
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("serve: load %s: %w", name, err)
	}
	r := NewResident(name, g)
	s.mu.Lock()
	s.graphs[name] = r
	s.mu.Unlock()
	if p := s.cfg.Options.Probe; p != nil {
		p.Emit(telemetry.Event{
			Kind:   telemetry.KindServe,
			Engine: "serve.load",
			Worker: -1,
			Items:  int64(g.NumNodes),
			BusyNs: wall.Nanoseconds(),
		})
	}
	return r, nil
}

// LoadSpec names an on-disk graph for LoadFiles: a BIF or XMLBIF
// document, or an mtxbp node/edge file pair (which goes through the
// parallel chunked ingest path).
type LoadSpec struct {
	BIF    string `json:"bif,omitempty"`
	XMLBIF string `json:"xmlbif,omitempty"`
	Nodes  string `json:"nodes,omitempty"`
	Edges  string `json:"edges,omitempty"`
}

// LoadFiles reads the spec'd input and registers it under name. BIF and
// XMLBIF networks are doubled into MRF form when Config.MRF is set;
// mtxbp pairs load through mtxbp.ReadParallel with the server's probe
// attached, so ingest telemetry flows to the same sinks as queries.
func (s *Server) LoadFiles(name string, spec LoadSpec) (*Resident, error) {
	start := time.Now()
	var g *graph.Graph
	var err error
	switch {
	case spec.BIF != "":
		g, err = bif.ParseFile(spec.BIF)
	case spec.XMLBIF != "":
		g, err = xmlbif.ParseFile(spec.XMLBIF)
	case spec.Nodes != "" && spec.Edges != "":
		g, err = mtxbp.ReadParallel(spec.Nodes, spec.Edges,
			mtxbp.ReadOptions{Workers: s.cfg.IngestWorkers, Probe: s.cfg.Options.Probe})
	default:
		return nil, fmt.Errorf("serve: load %s: need bif, xmlbif, or nodes+edges", name)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: load %s: %w", name, err)
	}
	if s.cfg.MRF && (spec.BIF != "" || spec.XMLBIF != "") {
		if g, err = g.Undirected(); err != nil {
			return nil, fmt.Errorf("serve: load %s: %w", name, err)
		}
	}
	return s.load(name, g, time.Since(start))
}

// Get returns the resident registered under name.
func (s *Server) Get(name string) (*Resident, bool) {
	s.mu.RLock()
	r, ok := s.graphs[name]
	s.mu.RUnlock()
	return r, ok
}

// Names returns the registered graph names, sorted.
func (s *Server) Names() []string {
	s.mu.RLock()
	names := make([]string, 0, len(s.graphs))
	for n := range s.graphs {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}

// only returns the single resident when exactly one is registered — the
// convenience default for requests that omit ?graph=.
func (s *Server) only() (*Resident, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.graphs) != 1 {
		return nil, false
	}
	for _, r := range s.graphs {
		return r, true
	}
	return nil, false
}

// Resident is one graph loaded for serving: the base graph, the lease
// pools of query overlays and batch states, and the warm-start snapshot.
//
// One invariant holds by construction: the snapshot, when set, is a
// fixpoint of the base as it stands. mu guards the base, the snapshot
// (one belief array patched in place, see warmSnapshot) and the cached
// statistics together. /v1/update holds it for writing from its first
// mutation until it has patched in the re-converged snapshot (or
// dropped it), and a query publishes under it only if the base is still
// at the generation the query leased. Queries hold mu for reading while
// they re-base an overlay and for writing while they patch the
// snapshot, never across an engine run; a batched run holds it for
// reading, since the batched engine reads the base's arrays directly.
type Resident struct {
	Name  string
	names map[string]int32

	mu        sync.RWMutex
	base      *graph.Graph
	snap      warmSnapshot
	md        graph.Metadata
	footprint int64

	// Both pools' New funcs read the base, so Get only with mu held.
	pool  sync.Pool // *overlay for solo queries and updates
	batch sync.Pool // *graph.BatchState lanes for QueryBatched
}

// NewResident wraps a built graph for serving without registering it in
// any server — the direct entry point for tests and for the credobench
// serve experiment.
func NewResident(name string, g *graph.Graph) *Resident {
	r := &Resident{
		Name:      name,
		base:      g,
		md:        g.Stats(),
		footprint: g.MemoryFootprint(),
		names:     make(map[string]int32, len(g.Names)),
		snap:      warmSnapshot{epoch: 1}, // pooled overlays start at epoch 0
	}
	for i, n := range g.Names {
		if n != "" {
			r.names[n] = int32(i)
		}
	}
	r.pool.New = func() any { return &overlay{g: g.Clone()} }
	r.batch.New = func() any {
		// A BatchState is node-shaped and the batched engine reads edges
		// from the base, so an edge add leaves pooled states valid.
		bs, err := graph.NewBatchState(g, DefaultBatchK)
		if err != nil {
			// Unreachable: DefaultBatchK is a valid lane count.
			panic(err)
		}
		return bs
	}
	return r
}

// Metadata returns the resident's structural statistics — recomputed
// after every structural delta, so edge counts and degree moments track
// the merged graph, not the one loaded at registration.
func (r *Resident) Metadata() graph.Metadata {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.md
}

// HasWarm reports whether a warm-start snapshot is available.
func (r *Resident) HasWarm() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.snap.ok
}

// Generation returns the base graph's mutation generation.
func (r *Resident) Generation() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.base.Generation()
}

// nodeLabel names node v for response payloads: its name when it has
// one, its decimal id otherwise. Names never change after load.
func (r *Resident) nodeLabel(v int32) string {
	if int(v) < len(r.base.Names) && r.base.Names[v] != "" {
		return r.base.Names[v]
	}
	return strconv.Itoa(int(v))
}
