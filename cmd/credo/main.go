// Command credo runs belief propagation on a belief network, choosing the
// best implementation for the graph automatically (the Credo engine of the
// paper) or using an explicitly requested one.
//
// Input is the streaming mtxbp format (a node file and an edge file), BIF,
// or XML-BIF:
//
//	credo -nodes g.nodes.mtx -edges g.edges.mtx -observe 3:1 -top 5
//	credo -bif family-out.bif -observe light-on:0
//
// The tool prints the selected implementation, convergence statistics and
// the posterior marginals of the highest-entropy-change nodes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"credo/internal/bif"
	"credo/internal/bp"
	"credo/internal/core"
	"credo/internal/features"
	"credo/internal/gpusim"
	"credo/internal/graph"
	"credo/internal/kernel"
	"credo/internal/ml"
	"credo/internal/mtxbp"
	"credo/internal/telemetry"
	"credo/internal/xmlbif"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "credo:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("credo", flag.ContinueOnError)
	nodesPath := fs.String("nodes", "", "mtxbp node file")
	edgesPath := fs.String("edges", "", "mtxbp edge file")
	bifPath := fs.String("bif", "", "BIF input file")
	xmlPath := fs.String("xmlbif", "", "XML-BIF input file")
	implName := fs.String("impl", "auto", "implementation: auto, cedge, cnode, cudaedge, cudanode, pool, relax")
	engineName := fs.String("engine", "auto", "execution engine: auto (the paper's selection), pool (persistent worker-pool runtime) or relax (relaxed-priority residual runtime)")
	workers := fs.Int("workers", 0, "worker team size for -engine=pool/relax and -impl pool/relax (0 = NumCPU)")
	ingestWorkers := fs.Int("ingest-workers", 0, "parallel chunked ingest fan-out for mtxbp inputs (0 = NumCPU, 1 = sequential; gzip always reads sequentially)")
	gpuName := fs.String("gpu", "pascal", "device profile: pascal or volta")
	threshold := fs.Float64("threshold", bp.DefaultThreshold, "convergence threshold")
	maxIter := fs.Int("maxiter", bp.DefaultMaxIterations, "iteration cap")
	queue := fs.Bool("queue", true, "enable the unconverged-element work queues")
	damping := fs.Float64("damping", 0, "damping factor d in [0,1): belief ← (1−d)·update + d·old (0 keeps the vanilla fast path)")
	variantName := fs.String("variant", "vanilla", "update rule: vanilla, damped, circular, or auto (selector picks from the oscillation-risk features)")
	mrf := fs.Bool("mrf", false, "treat the network as an undirected MRF: store each link as two directed edges so evidence flows against edge direction too (recommended for BIF inputs)")
	explain := fs.Bool("explain", false, "print the graph's metadata, feature vector and the selection reasoning before running")
	modelPath := fs.String("model", "", "load a trained selection forest (from credobench -train) to refine the Node/Edge choice")
	savePath := fs.String("save", "", "write the posterior beliefs to this file in the mtxbp node format")
	top := fs.Int("top", 10, "print the n nodes whose beliefs moved the most")
	telemetryOn := fs.Bool("telemetry", false, "record per-iteration convergence telemetry and print a sparkline report after the run")
	traceOut := fs.String("trace-out", "", "stream telemetry events to this file as JSONL (one event per line)")
	httpAddr := fs.String("http", "", "serve live telemetry on this address while the run is in flight: /metrics, /debug/vars and /debug/pprof")
	var observations multiFlag
	fs.Var(&observations, "observe", "clamp a node, as node:state (repeatable; node is an id or a name)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Telemetry sinks are assembled before loading so the ingest pipeline
	// can stream its chunk events through the same probe as the run.
	var probes []telemetry.Probe
	var recorder *telemetry.Recorder
	if *telemetryOn {
		recorder = telemetry.NewRecorder(0)
		probes = append(probes, recorder)
	}
	var traceFile *os.File
	var traceWriter *telemetry.JSONLWriter
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		traceFile = f
		traceWriter = telemetry.NewJSONLWriter(traceFile)
		probes = append(probes, traceWriter)
		// The success path flushes and closes explicitly (and reports the
		// errors); this defer only covers early error returns between here
		// and there, which nil traceFile out after closing.
		defer func() {
			if traceFile != nil {
				traceFile.Close()
			}
		}()
	}
	if *httpAddr != "" {
		metrics := &telemetry.Metrics{}
		probes = append(probes, metrics, telemetry.ExecTrace{})
		server, err := telemetry.NewServer(*httpAddr, metrics, nil)
		if err != nil {
			return err
		}
		server.Start()
		defer server.Close()
		fmt.Fprintf(out, "telemetry: live metrics on http://%s/metrics (profiling on /debug/pprof)\n", server.Addr)
	}
	probe := telemetry.Multi(probes...)

	g, err := load(*nodesPath, *edgesPath, *bifPath, *xmlPath,
		mtxbp.ReadOptions{Workers: *ingestWorkers, Probe: probe})
	if err != nil {
		return err
	}
	if *mrf {
		g, err = g.Undirected()
		if err != nil {
			return err
		}
	}
	md := g.Stats()
	fmt.Fprintf(out, "loaded graph: %d nodes, %d directed edges, %d beliefs\n", md.NumNodes, md.NumEdges, md.States)

	prior := append([]float32(nil), g.Beliefs...)
	for _, obs := range observations {
		v, s, err := parseObservation(g, obs)
		if err != nil {
			return err
		}
		if err := g.Observe(v, s); err != nil {
			return err
		}
		fmt.Fprintf(out, "observed %s = state %d\n", nodeName(g, v), s)
	}

	gpu := gpusim.Pascal()
	switch strings.ToLower(*gpuName) {
	case "pascal":
	case "volta":
		gpu = gpusim.Volta()
	default:
		return fmt.Errorf("unknown GPU profile %q", *gpuName)
	}

	var classifier ml.Classifier
	if *modelPath != "" {
		mf, err := os.Open(*modelPath)
		if err != nil {
			return err
		}
		forest, err := ml.LoadForest(mf)
		mf.Close()
		if err != nil {
			return err
		}
		classifier = forest
	}

	autoVariant := false
	var variant kernel.Variant
	if strings.ToLower(*variantName) == "auto" {
		autoVariant = true
	} else {
		variant, err = kernel.ParseVariant(strings.ToLower(*variantName))
		if err != nil {
			return err
		}
	}
	if *damping < 0 || *damping >= 1 {
		return fmt.Errorf("-damping %g outside [0,1)", *damping)
	}

	eng := core.Engine{
		Selector: core.Selector{GPU: gpu, Classifier: classifier, PoolWorkers: *workers},
		Options: bp.Options{
			Threshold:     float32(*threshold),
			MaxIterations: *maxIter,
			WorkQueue:     *queue,
			Probe:         probe,
			Damping:       float32(*damping),
			Variant:       variant,
		},
		AutoVariant: autoVariant,
	}
	eng.Options = eng.Options.ResolveVariant()

	switch strings.ToLower(*engineName) {
	case "auto":
	case "pool":
		// The pool engine is requested explicitly: route the run to it
		// (an explicit -impl choice still wins).
		if eng.PoolWorkers == 0 {
			eng.PoolWorkers = runtime.NumCPU()
		}
		if *implName == "auto" {
			*implName = "pool"
		}
	case "relax":
		// The relaxed residual engine is requested explicitly: route the
		// run to it (an explicit -impl choice still wins).
		if eng.RelaxWorkers == 0 {
			eng.RelaxWorkers = *workers
		}
		if eng.RelaxWorkers == 0 {
			eng.RelaxWorkers = runtime.NumCPU()
		}
		if *implName == "auto" {
			*implName = "relax"
		}
	default:
		return fmt.Errorf("unknown engine %q (want auto, pool or relax)", *engineName)
	}

	if *explain {
		printExplanation(out, g, eng.Selector)
	}

	var rep core.Report
	if *implName == "auto" {
		rep, err = eng.Run(g)
	} else {
		impl, perr := parseImpl(*implName)
		if perr != nil {
			return perr
		}
		rep, err = eng.RunWith(g, impl)
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "implementation: %s\n", rep.Implementation)
	fmt.Fprintf(out, "variant: %s\n", rep.Variant)
	fmt.Fprintf(out, "iterations: %d, converged: %v, final delta: %g\n",
		rep.Result.Iterations, rep.Result.Converged, rep.Result.FinalDelta)
	fmt.Fprintf(out, "modelled execution time: %v\n", rep.EstimatedTime)
	if rep.DeviceStats != nil {
		fmt.Fprintf(out, "device: %d kernels, %d B to device, %d atomics\n",
			rep.DeviceStats.KernelsLaunched, rep.DeviceStats.BytesToDevice, rep.DeviceStats.Atomics)
	}

	if traceWriter != nil {
		if err := traceWriter.Flush(); err != nil {
			return err
		}
		closeErr := traceFile.Close()
		traceFile = nil
		if closeErr != nil {
			return closeErr
		}
		fmt.Fprintf(out, "telemetry: event stream written to %s\n", *traceOut)
	}
	if recorder != nil {
		telemetry.WriteConvergenceReport(out, recorder.Events())
	}

	printTopMoved(out, g, prior, *top)

	if *savePath != "" {
		sf, err := os.Create(*savePath)
		if err != nil {
			return err
		}
		if err := mtxbp.WriteNodeBeliefs(sf, g); err != nil {
			sf.Close()
			return err
		}
		if err := sf.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "posteriors written to %s\n", *savePath)
	}
	return nil
}

func load(nodesPath, edgesPath, bifPath, xmlPath string, opts mtxbp.ReadOptions) (*graph.Graph, error) {
	switch {
	case bifPath != "":
		return bif.ParseFile(bifPath)
	case xmlPath != "":
		return xmlbif.ParseFile(xmlPath)
	case nodesPath != "" && edgesPath != "":
		return mtxbp.ReadParallel(nodesPath, edgesPath, opts)
	default:
		return nil, fmt.Errorf("need -nodes and -edges, or -bif, or -xmlbif")
	}
}

func parseImpl(name string) (core.Implementation, error) {
	switch strings.ToLower(name) {
	case "cedge":
		return core.CEdge, nil
	case "cnode":
		return core.CNode, nil
	case "cudaedge":
		return core.CUDAEdge, nil
	case "cudanode":
		return core.CUDANode, nil
	case "pool":
		return core.Pool, nil
	case "relax":
		return core.Relax, nil
	}
	return 0, fmt.Errorf("unknown implementation %q", name)
}

func parseObservation(g *graph.Graph, s string) (int32, int, error) {
	name, stateStr, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("observation %q is not node:state", s)
	}
	state, err := strconv.Atoi(stateStr)
	if err != nil {
		return 0, 0, fmt.Errorf("observation %q: bad state: %w", s, err)
	}
	if id, err := strconv.Atoi(name); err == nil {
		return int32(id), state, nil
	}
	for i, n := range g.Names {
		if n == name {
			return int32(i), state, nil
		}
	}
	return 0, 0, fmt.Errorf("observation %q: no node named %q", s, name)
}

func nodeName(g *graph.Graph, v int32) string {
	if int(v) < len(g.Names) && g.Names[v] != "" {
		return g.Names[v]
	}
	return "node " + strconv.Itoa(int(v))
}

// printExplanation prints the metadata, the §3.7 feature vector and what
// the selector would choose.
func printExplanation(out io.Writer, g *graph.Graph, sel core.Selector) {
	md := g.Stats()
	fmt.Fprintf(out, "metadata: max in-degree %d, max out-degree %d, avg degree %.2f\n",
		md.MaxInDegree, md.MaxOutDegree, md.AvgInDegree)
	names := features.Names()
	for i, v := range features.Vector(md) {
		fmt.Fprintf(out, "feature %-18s = %.4g\n", names[i], v)
	}
	fp := g.MemoryFootprint()
	fmt.Fprintf(out, "device footprint: %d bytes (VRAM %d)\n", fp, sel.GPU.VRAMBytes)
	fmt.Fprintf(out, "selector would choose: %s\n", sel.Choose(md, fp))
}

// printTopMoved lists the nodes whose posterior shifted most from their
// prior.
func printTopMoved(out io.Writer, g *graph.Graph, prior []float32, top int) {
	type moved struct {
		v     int32
		delta float32
	}
	ms := make([]moved, g.NumNodes)
	for v := 0; v < g.NumNodes; v++ {
		ms[v] = moved{int32(v), graph.L1Diff(g.Belief(int32(v)), prior[v*g.States:(v+1)*g.States])}
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].delta > ms[j].delta })
	if top > len(ms) {
		top = len(ms)
	}
	fmt.Fprintf(out, "top %d nodes by posterior shift:\n", top)
	for _, m := range ms[:top] {
		fmt.Fprintf(out, "  %-20s Δ=%.4f  belief=%v\n", nodeName(g, m.v), m.delta, formatBelief(g.Belief(m.v)))
	}
}

func formatBelief(b []float32) string {
	parts := make([]string, len(b))
	for i, v := range b {
		parts[i] = strconv.FormatFloat(float64(v), 'f', 4, 32)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// multiFlag collects repeated string flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }
