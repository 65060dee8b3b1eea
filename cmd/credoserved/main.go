// Command credoserved is the long-lived inference daemon: it loads belief
// networks into a resident registry at startup and serves concurrent
// posterior queries over HTTP, warm-starting each query from the last
// converged fixpoint when the evidence delta allows (internal/serve).
//
//	credoserved -listen :8080 -ops :9090 -load sprinkler=bif:sprinkler.bif
//	curl -s localhost:8080/v1/query -d '{"evidence":[{"node":"wetgrass","state":1}]}'
//
// The query plane exposes /healthz, /v1/graphs, /v1/load and /v1/query;
// the ops plane (-ops) is a separate telemetry sidecar with Prometheus
// /metrics, /debug/vars and /debug/pprof, so scraping and profiling never
// compete with queries for the admission gate.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"credo/internal/bp"
	"credo/internal/core"
	"credo/internal/gpusim"
	"credo/internal/ml"
	"credo/internal/serve"
	"credo/internal/telemetry"
)

func main() {
	app, err := build(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "credoserved:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := app.run(ctx, nil); err != nil {
		fmt.Fprintln(os.Stderr, "credoserved:", err)
		os.Exit(1)
	}
}

// Query-plane connection bounds. The header timeout drops a client that
// opens a connection and never finishes its request headers; on a
// kept-alive connection it starts only once the next request's first
// bytes arrive, after the idle timeout has bounded the wait for them.
// There is no read or write timeout: either deadline keeps running while
// the handler waits for admission (the body is read after it) and runs
// its query, and a cold query on a large resident takes seconds.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newQueryServer builds the query plane's HTTP server around h.
func newQueryServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// app is a fully configured daemon: the serving instance plus the
// listener addresses and telemetry lifecycle it owns.
type app struct {
	srv    *serve.Server
	out    io.Writer
	listen string
	ops    string

	traceFile   *os.File
	traceWriter *telemetry.JSONLWriter
	metrics     *telemetry.Metrics
	tracer      *telemetry.Tracer
	flight      *telemetry.FlightRecorder
}

// build parses flags, assembles telemetry, and loads every -load graph
// into a serving registry. It does not open any listener.
func build(args []string, out io.Writer) (*app, error) {
	fs := flag.NewFlagSet("credoserved", flag.ContinueOnError)
	fs.SetOutput(out)
	listen := fs.String("listen", ":8080", "query-plane listen address")
	ops := fs.String("ops", "", "ops-plane listen address (Prometheus /metrics, /debug/vars, /debug/pprof); empty disables")
	var loads multiFlag
	fs.Var(&loads, "load", "graph to load at startup, as name=bif:PATH, name=xmlbif:PATH or name=mtx:NODES,EDGES (repeatable)")
	workers := fs.Int("workers", 0, "worker team size for the relax and pool engines (0 = NumCPU)")
	ingestWorkers := fs.Int("ingest-workers", 0, "parallel chunked ingest fan-out for mtxbp loads (0 = NumCPU, 1 = sequential)")
	maxInFlight := fs.Int("max-inflight", serve.DefaultMaxInFlight, "queries executing concurrently")
	maxQueue := fs.Int("max-queue", 0, "admitted-but-waiting queries beyond -max-inflight before shedding with 429 (0 = 4x max-inflight)")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint on shed responses")
	threshold := fs.Float64("threshold", bp.DefaultThreshold, "convergence threshold")
	maxIter := fs.Int("maxiter", bp.DefaultMaxIterations, "iteration cap per query")
	mrf := fs.Bool("mrf", true, "double directed BIF/XMLBIF networks into MRF form on load, so evidence flows against edge direction")
	cuda := fs.Bool("cuda", false, "let automatic selection route queries to the simulated CUDA device (off for serving: the simulator models batch offload, not query latency)")
	modelPath := fs.String("model", "", "load a trained selection forest (from credobench -train) to refine the Node/Edge choice")
	traceOut := fs.String("trace-out", "", "stream telemetry events (queries, sheds, loads, engine runs) to this file as JSONL")
	traceSample := fs.Float64("trace-sample", 1, "fraction of queries carrying a request-scoped span trace (1 = all, 0 disables tracing)")
	flightSlowMs := fs.Int("flight-slow-ms", 250, "latency threshold flagging a traced query slow and capturing it in the flight recorder (0 captures every traced query, negative disables the latency trigger)")
	flightDepth := fs.Int("flight-depth", telemetry.DefaultFlightDepth, "anomalous traces retained by the flight recorder ring (served at /debug/flight on the ops plane)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	a := &app{out: out, listen: *listen, ops: *ops}

	var probes []telemetry.Probe
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return nil, err
		}
		a.traceFile = f
		a.traceWriter = telemetry.NewJSONLWriter(f)
		probes = append(probes, a.traceWriter)
	}
	if *ops != "" {
		a.metrics = &telemetry.Metrics{}
		probes = append(probes, a.metrics, telemetry.ExecTrace{})
	}
	// Tracing rides on the telemetry sinks: without an ops plane or a
	// trace file there is nowhere for spans or flight records to go, so
	// the tracer stays nil and the span path costs nothing.
	if *traceSample > 0 && (*ops != "" || *traceOut != "") {
		a.tracer = telemetry.NewTracer(*traceSample)
		a.tracer.Metrics = a.metrics
		a.tracer.SlowNs = int64(*flightSlowMs) * 1e6
		if *flightSlowMs < 0 {
			a.tracer.SlowNs = -1
		}
		a.flight = telemetry.NewFlightRecorder(*flightDepth)
		a.flight.SetSink(a.traceWriter)
		a.tracer.Flight = a.flight
	}

	var classifier ml.Classifier
	if *modelPath != "" {
		mf, err := os.Open(*modelPath)
		if err != nil {
			a.closeTrace()
			return nil, err
		}
		forest, err := ml.LoadForest(mf)
		mf.Close()
		if err != nil {
			a.closeTrace()
			return nil, err
		}
		classifier = forest
	}

	a.srv = serve.New(serve.Config{
		Selector: core.Selector{
			GPU:         gpusim.Pascal(),
			Classifier:  classifier,
			DisableCUDA: !*cuda,
		},
		Options: bp.Options{
			Threshold:     float32(*threshold),
			MaxIterations: *maxIter,
			WorkQueue:     true,
			Probe:         telemetry.Multi(probes...),
		},
		Workers:       *workers,
		MaxInFlight:   *maxInFlight,
		MaxQueue:      *maxQueue,
		RetryAfter:    *retryAfter,
		Tracer:        a.tracer,
		MRF:           *mrf,
		IngestWorkers: *ingestWorkers,
	})

	for _, l := range loads {
		name, spec, err := parseLoad(l)
		if err != nil {
			a.closeTrace()
			return nil, err
		}
		r, err := a.srv.LoadFiles(name, spec)
		if err != nil {
			a.closeTrace()
			return nil, err
		}
		md := r.Metadata()
		fmt.Fprintf(out, "loaded %s: %d nodes, %d directed edges, %d beliefs\n",
			name, md.NumNodes, md.NumEdges, md.States)
	}
	return a, nil
}

// run opens the query (and optional ops) listeners and serves until ctx
// is cancelled, then shuts down gracefully. ready, when non-nil, receives
// the query plane's bound address once it is accepting connections.
func (a *app) run(ctx context.Context, ready func(addr string)) error {
	defer a.closeTrace()

	if a.ops != "" {
		opsSrv, err := telemetry.NewServer(a.ops, a.metrics, a.flight)
		if err != nil {
			return err
		}
		opsSrv.Start()
		defer opsSrv.Close()
		fmt.Fprintf(a.out, "ops plane on http://%s/metrics (profiling on /debug/pprof)\n", opsSrv.Addr)
	}

	ln, err := net.Listen("tcp", a.listen)
	if err != nil {
		return err
	}
	hs := newQueryServer(a.srv.Handler())
	fmt.Fprintf(a.out, "serving %s on http://%s/v1/query\n",
		strings.Join(a.srv.Names(), ", "), ln.Addr())
	if ready != nil {
		ready(ln.Addr().String())
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(a.out, "shut down")
	return nil
}

func (a *app) closeTrace() {
	if a.traceWriter != nil {
		a.traceWriter.Flush()
	}
	if a.traceFile != nil {
		a.traceFile.Close()
		a.traceFile = nil
	}
}

// parseLoad turns a -load value — name=bif:PATH, name=xmlbif:PATH or
// name=mtx:NODES,EDGES — into a registry entry.
func parseLoad(s string) (string, serve.LoadSpec, error) {
	name, rest, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return "", serve.LoadSpec{}, fmt.Errorf("-load %q is not name=format:path", s)
	}
	format, path, ok := strings.Cut(rest, ":")
	if !ok || path == "" {
		return "", serve.LoadSpec{}, fmt.Errorf("-load %q is not name=format:path", s)
	}
	switch format {
	case "bif":
		return name, serve.LoadSpec{BIF: path}, nil
	case "xmlbif":
		return name, serve.LoadSpec{XMLBIF: path}, nil
	case "mtx":
		nodes, edges, ok := strings.Cut(path, ",")
		if !ok || nodes == "" || edges == "" {
			return "", serve.LoadSpec{}, fmt.Errorf("-load %q: mtx wants NODES,EDGES", s)
		}
		return name, serve.LoadSpec{Nodes: nodes, Edges: edges}, nil
	}
	return "", serve.LoadSpec{}, fmt.Errorf("-load %q: unknown format %q (want bif, xmlbif or mtx)", s, format)
}

// multiFlag collects repeated string flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }
