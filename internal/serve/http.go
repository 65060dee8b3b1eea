package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"credo/internal/graph"
	"credo/internal/telemetry"
)

// Handler returns the query-plane HTTP API. The ops plane (Prometheus
// metrics, expvar, pprof) is a separate telemetry.Server on its own
// port, so operational scraping never competes with queries for the
// admission gate.
//
//	GET  /healthz              liveness
//	GET  /v1/graphs            registered graphs with metadata
//	GET  /v1/graphs/{name}     one graph's metadata
//	POST /v1/load?graph=NAME   register an on-disk graph (LoadSpec body)
//	POST /v1/query?graph=NAME&engine=E
//	                           posterior query (evidence + nodes body)
//	POST /v1/update?graph=NAME graph delta (updates body): mutate the
//	                           resident in place and re-converge its
//	                           warm snapshot from the delta frontier
//
// ?graph= may be omitted when exactly one graph is registered.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /v1/graphs", s.handleGraphs)
	mux.HandleFunc("GET /v1/graphs/{name}", s.handleGraph)
	mux.HandleFunc("POST /v1/load", s.handleLoad)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/update", s.handleUpdate)
	return mux
}

// graphInfo is the wire shape of a registry entry.
type graphInfo struct {
	Name       string         `json:"name"`
	Nodes      int            `json:"nodes"`
	Edges      int            `json:"edges"`
	States     int            `json:"states"`
	Warm       bool           `json:"warm"`
	Generation uint64         `json:"generation"`
	Metadata   graph.Metadata `json:"metadata"`
}

// info reads the entry under one read lock, so an update cannot land
// between its fields.
func (s *Server) info(r *Resident) graphInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return graphInfo{
		Name:       r.Name,
		Nodes:      r.md.NumNodes,
		Edges:      r.md.NumEdges,
		States:     r.md.States,
		Warm:       r.snap.ok,
		Generation: r.base.Generation(),
		Metadata:   r.md,
	}
}

func (s *Server) handleGraphs(w http.ResponseWriter, _ *http.Request) {
	infos := make([]graphInfo, 0)
	for _, name := range s.Names() {
		if r, ok := s.Get(name); ok {
			infos = append(infos, s.info(r))
		}
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleGraph(w http.ResponseWriter, req *http.Request) {
	r, ok := s.Get(req.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown graph %q", req.PathValue("name")))
		return
	}
	writeJSON(w, http.StatusOK, s.info(r))
}

// loadPayload is the POST /v1/load body: an optional name (the ?graph=
// parameter wins) plus the file spec.
type loadPayload struct {
	Name string `json:"name"`
	LoadSpec
}

func (s *Server) handleLoad(w http.ResponseWriter, req *http.Request) {
	var p loadPayload
	if err := decodeStrict(req, &p); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	name := req.URL.Query().Get("graph")
	if name == "" {
		name = p.Name
	}
	r, err := s.LoadFiles(name, p.LoadSpec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, s.info(r))
}

func (s *Server) handleQuery(w http.ResponseWriter, req *http.Request) {
	r, ok := s.resident(req)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown graph (set ?graph=, see GET /v1/graphs)")
		return
	}
	engine, err := ParseEngine(req.URL.Query().Get("engine"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	tr := s.cfg.Tracer.Start("query")
	defer tr.Finish()

	admit := tr.Span("admit")
	admitted := s.adm.admit()
	admit.End()
	if !admitted {
		s.shed(tr)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
		writeError(w, http.StatusTooManyRequests, "server saturated, retry later")
		return
	}
	defer s.adm.release()

	dec := tr.Span("decode")
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxQueryBytes))
	if err != nil {
		dec.End()
		writeError(w, http.StatusBadRequest, fmt.Sprintf("read query: %v", err))
		return
	}
	rq, err := r.DecodeQuery(body)
	dec.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	resp, err := s.queryResident(r, engine, rq, tr)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.emit(telemetry.Event{
		Kind:      telemetry.KindServe,
		Engine:    "serve.query",
		Worker:    -1,
		Impl:      resp.Engine,
		Variant:   s.variant,
		Warm:      resp.Warm,
		Converged: resp.Converged,
		Updated:   resp.Updates,
		Iter:      int32(resp.Iterations),
		BusyNs:    resp.WallNs,
		Active:    s.adm.depth(),
		Items:     s.adm.capacity(),
	})
	enc := tr.Span("encode")
	buf := answerBufs.Get().(*[]byte)
	b := append(resp.AppendJSON((*buf)[:0]), '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	w.Write(b) // a failed write means the client has gone; no one is left to tell
	*buf = b
	answerBufs.Put(buf)
	enc.End()
}

// answerBufs recycles the buffers handleQuery encodes answers into. An
// answer is written out before its buffer goes back.
var answerBufs = sync.Pool{New: func() any { return new([]byte) }}

// shed flags the trace and emits the single serve.shed event for one
// rejected request, carrying the Retry-After hint actually sent on the
// wire and the waiting-line depth at rejection time — the two numbers a
// backoff post-mortem needs side by side.
func (s *Server) shed(tr *telemetry.Trace) {
	tr.MarkShed()
	s.emit(telemetry.Event{
		Kind:          telemetry.KindServe,
		Engine:        "serve.shed",
		Worker:        -1,
		Active:        s.adm.depth(),
		Items:         s.adm.capacity(),
		RetryAfterSec: int64(retryAfterSeconds(s.cfg.RetryAfter)),
		Waiting:       s.adm.waitDepth(),
	})
}

// handleUpdate applies a delta batch to the resident and re-converges
// its warm snapshot. The re-convergence is a propagation run, so the
// request pays an admission slot exactly like a query; a full line
// sheds it with the same 429 contract.
func (s *Server) handleUpdate(w http.ResponseWriter, req *http.Request) {
	r, ok := s.resident(req)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown graph (set ?graph=, see GET /v1/graphs)")
		return
	}
	if !s.adm.admit() {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
		writeError(w, http.StatusTooManyRequests, "server saturated, retry later")
		return
	}
	defer s.adm.release()

	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxQueryBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("read update: %v", err))
		return
	}
	ru, err := r.DecodeUpdate(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	resp, err := s.UpdateResident(r, ru)
	if err != nil {
		if resp != nil {
			// An operation was rejected after a prefix already landed (or
			// re-convergence failed after the whole batch did): return the
			// structured response alongside the error so the client sees
			// Applied and Generation and can resync, instead of parsing
			// the position out of the error string.
			resp.Error = err.Error()
			writeJSON(w, http.StatusBadRequest, resp)
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.emit(telemetry.Event{
		Kind:      telemetry.KindServe,
		Engine:    "serve.update",
		Worker:    -1,
		Variant:   s.variant,
		Warm:      resp.Warm,
		Converged: resp.Converged,
		Updated:   resp.Updates,
		Iter:      int32(resp.Applied),
		BusyNs:    resp.WallNs,
		Active:    s.adm.depth(),
		Items:     s.adm.capacity(),
	})
	writeJSON(w, http.StatusOK, resp)
}

// resident resolves the target graph of a request: ?graph= when given,
// the sole registered graph otherwise.
func (s *Server) resident(req *http.Request) (*Resident, bool) {
	if name := req.URL.Query().Get("graph"); name != "" {
		return s.Get(name)
	}
	return s.only()
}

func (s *Server) emit(e telemetry.Event) {
	if p := s.cfg.Options.Probe; p != nil {
		p.Emit(e)
	}
}

func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// decodeStrict decodes one JSON document from the request body,
// rejecting unknown fields and trailing data.
func decodeStrict(req *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(req.Body, maxQueryBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode body: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return fmt.Errorf("trailing data after body")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
