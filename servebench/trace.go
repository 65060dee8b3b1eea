package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"credo/internal/bp"
	"credo/internal/core"
	"credo/internal/gpusim"
	"credo/internal/graph"
	"credo/internal/mtxbp"
	"credo/internal/serve"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the enclosing span's ID (-1 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing, which is how the replay measures its own overhead.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans), Parent: parent, Req: req, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = time.Since(t.t0).Nanoseconds()
	}
}

// timed runs f inside a span.
func (t *tracer) timed(name string, parent, req int, f func()) {
	id := t.begin(name, parent, req)
	f()
	t.end(id)
}

// durations returns the duration of every span called name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		enc.Encode(s)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// daemonConfig mirrors credoserved's defaults, so the in-process replay
// runs the same serving configuration as the deployed daemon.
func daemonConfig() serve.Config {
	return serve.Config{
		Selector: core.Selector{GPU: gpusim.Pascal(), DisableCUDA: true},
		Options: bp.Options{
			Threshold:     bp.DefaultThreshold,
			MaxIterations: bp.DefaultMaxIterations,
			WorkQueue:     true,
		},
		MRF: true,
	}
}

// replayStats is what one in-process replay of a schedule measured.
type replayStats struct {
	wall     time.Duration // the request loop, warm-up excluded
	sweeps   []float64     // batched answers' sweep counts
	updates  []float64     // solo answers' residual update counts
	respKiB  []float64     // encoded main-path answer sizes
	graph    *graph.Graph  // the resident's base, mutated by the updates
	resident *serve.Resident
	server   *serve.Server
}

// replay serves the schedule's requests in due order, one at a time,
// through the serving layer's exported calls on a fresh server loaded
// with g. Each request is a root span with one child per layer call.
func replay(w workload, g *graph.Graph, sc *schedule, tr *tracer) (*replayStats, error) {
	srv := serve.New(daemonConfig())
	var r *serve.Resident
	var err error
	tr.timed("serve.load", -1, -1, func() { r, err = srv.Load("g", g) })
	if err != nil {
		return nil, err
	}
	st := &replayStats{graph: g, resident: r, server: srv}
	batched := w.Engine == ""
	path := "query_solo"
	if batched {
		path = "query_batch"
	}
	// query serves one query document. Only the schedule's own queries
	// record serve.* spans; warm-up queries and probes record theirs
	// under their own prefix, so the per-layer figures describe one
	// request kind.
	query := func(body []byte, root, req int, prefix string) error {
		main := prefix == "serve"
		var rq *serve.ResolvedQuery
		var resp *serve.Response
		var err error
		tr.timed(prefix+".decode", root, req, func() { rq, err = r.DecodeQuery(body) })
		if err != nil {
			return err
		}
		tr.timed(prefix+"."+path, root, req, func() {
			if batched {
				var resps []*serve.Response
				if resps, err = srv.QueryBatched(r, []*serve.ResolvedQuery{rq}); err == nil {
					resp = resps[0]
				}
			} else {
				resp, err = srv.QueryResident(r, w.Engine, rq)
			}
		})
		if err != nil {
			return err
		}
		var b []byte
		tr.timed(prefix+".encode", root, req, func() { b, err = json.Marshal(resp) })
		if main {
			st.respKiB = append(st.respKiB, float64(len(b))/1024)
			if batched {
				st.sweeps = append(st.sweeps, float64(resp.Iterations))
			} else {
				st.updates = append(st.updates, float64(resp.Updates))
			}
		}
		return err
	}

	nq := 0
	for i := range sc.Requests {
		if r := &sc.Requests[i]; !r.Update && nq < warmupQueries {
			nq++
			if err := query(r.Body, -1, -1, "warmup"); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	start := time.Now()
	for i := range sc.Requests {
		req := &sc.Requests[i]
		if !req.Update {
			root := tr.begin("query", -1, i)
			err := query(req.Body, root, i, "serve")
			tr.end(root)
			if err != nil {
				return nil, fmt.Errorf("request %d: %w", i, err)
			}
			continue
		}
		root := tr.begin("update", -1, i)
		var ru *serve.ResolvedUpdate
		tr.timed("serve.decode_update", root, i, func() { ru, err = r.DecodeUpdate(req.Body) })
		if err == nil {
			var resp *serve.UpdateResponse
			tr.timed("serve.update", root, i, func() { resp, err = srv.UpdateResident(r, ru) })
			if err == nil {
				tr.timed("serve.encode_update", root, i, func() { _, err = json.Marshal(resp) })
			}
		}
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		root = tr.begin("probe", -1, i)
		err = query(req.Probe, root, i, "probe")
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("probe %d: %w", i, err)
		}
	}
	st.wall = time.Since(start)
	return st, nil
}

// runTraced replays the untraced run's requests in-process through each
// layer's exported calls with spans on, measures the layers the replay
// does not reach directly, and derives the per-layer metrics. res is the
// untraced run, whose medians and /metrics counters the layer figures
// are set against.
func runTraced(w workload, seed int64, root string, res *runResult) ([]metric, error) {
	f, sc := res.Files, res.Sched
	tr := &tracer{on: true, t0: time.Now()}
	load := func() (*graph.Graph, error) {
		return mtxbp.ReadParallel(f.Nodes, f.Edges, mtxbp.ReadOptions{})
	}

	// Ingest, validation and statistics, three times over.
	for i := 0; i < 3; i++ {
		var g *graph.Graph
		var err error
		tr.timed("mtxbp.read", -1, -1, func() { g, err = load() })
		if err == nil {
			tr.timed("graph.validate", -1, -1, func() { err = g.Validate() })
		}
		if err != nil {
			return nil, err
		}
		tr.timed("graph.stats", -1, -1, func() { g.Stats(); g.MemoryFootprint() })
	}
	readMs := median(tr.durations("mtxbp.read"))

	// The replay twice, spans on and off, alternating which goes first
	// so host drift does not land on one side. Only the traced replay's
	// server is kept, for the layer probes below.
	var traced *replayStats
	var untracedWall time.Duration
	for _, on := range []bool{seed%2 == 0, seed%2 != 0} {
		g, err := load()
		if err != nil {
			return nil, err
		}
		if on {
			traced, err = replay(w, g, sc, tr)
		} else {
			var st *replayStats
			if st, err = replay(w, g, sc, &tracer{}); err == nil {
				untracedWall = st.wall
			}
		}
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	m, err := measureLayers(w, tr, traced, res)
	if err != nil {
		return nil, err
	}

	med := func(name string) float64 { return median(tr.durations(name)) }
	mainQuery := "serve.query_solo"
	if w.Engine == "" {
		mainQuery = "serve.query_batch"
	}
	flushes := res.Prom["credo_serve_batch_flushes"]
	lanes := 0.0
	if flushes > 0 {
		lanes = res.Prom["credo_serve_batch_occupancy"] / flushes
	}
	warmFrac := 0.0
	if q := res.Prom["credo_serve_queries_total"]; q > 0 {
		warmFrac = res.Prom["credo_serve_warm_total"] / q
	}
	mb := float64(f.NodeBytes+f.EdgeBytes) / (1 << 20)
	out, err := collect(perLayer, map[string]float64{
		"mtxbp.read_ms":                       readMs,
		"mtxbp.mb_per_s":                      mb / (readMs / 1e3),
		"graph.validate_ms":                   med("graph.validate"),
		"graph.stats_ms":                      med("graph.stats"),
		"serve.decode_us":                     1e3 * med("serve.decode"),
		"graph.copy_state_us":                 1e3 * med("graph.copy_state"),
		"serve.query_solo_ms":                 med("serve.query_solo"),
		"bp.residual_updates":                 m.residualUpdates,
		"bp.residual_from_ms":                 med("bp.residual_from"),
		"serve.query_batch_ms":                med("serve.query_batch"),
		"bp.batch_sweeps":                     m.batchSweeps,
		"graph.batch_reset_us":                1e3 * med("graph.batch_reset"),
		"bp.batch_ms":                         med("bp.batch"),
		"kernel.batch_ns_per_edge_state_lane": m.batchNs,
		"kernel.ns_per_edge_state":            m.soloNs,
		"serve.flush_lanes":                   lanes,
		"kernel.lane_util":                    lanes / serve.DefaultBatchK,
		"serve.encode_us":                     1e3 * med("serve.encode"),
		"serve.resp_kb":                       median(traced.respKiB),
		"serve.update_ms":                     med("serve.update"),
		"graph.merge_ms":                      med("graph.merge"),
		"graph.seeds_per_update":              m.seedsPerUpdate,
		"bp.cold_batch_ms":                    med("bp.cold_batch"),
		"serve.warm_frac":                     warmFrac,
		"serve.update_wait_ms":                res.UpdateP50 - med("serve.update"),
		"serve.remainder_ms":                  res.QueryP50 - (med("serve.decode") + med(mainQuery) + med("serve.encode")),
		"harness.late_p99_ms":                 res.LateP99,
		"harness.trace_overhead_pct":          100 * (traced.wall.Seconds() - untracedWall.Seconds()) / untracedWall.Seconds(),
	})
	if err != nil {
		return nil, err
	}
	path := filepath.Join(root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.Name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("servebench: traced replay: %d spans written to %s; replay %.2f s traced, %.2f s untraced\n",
		len(tr.spans), path, traced.wall.Seconds(), untracedWall.Seconds())
	return out, nil
}
