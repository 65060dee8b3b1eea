// Command credobench regenerates the paper's tables and figures (the
// experiment index of DESIGN.md §5) on the scaled benchmark tiers.
//
//	credobench -exp fig7 -tier small
//	credobench -exp all -tier ci -o results.txt
//
// Every experiment prints the rows or series of its paper artifact next to
// the paper's reported values so the shapes can be compared directly.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"credo/internal/bench"
	"credo/internal/kernel"
	"credo/internal/ml"
	"credo/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "credobench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("credobench", flag.ContinueOnError)
	expID := fs.String("exp", "all", "experiment id or 'all' (ids: "+idList()+")")
	tierName := fs.String("tier", "small", "benchmark tier: ci, small or medium")
	engineName := fs.String("engine", "auto", "execution engine: auto runs -exp as given; pool focuses on the worker-pool comparison (-exp pool); relax on the relaxed-scheduling comparison (-exp relax)")
	workers := fs.Int("workers", 8, "worker team size for the pool and relax experiments")
	ingestWorkers := fs.Int("ingest-workers", 8, "parallel chunked ingest fan-out for the ingest experiment")
	seed := fs.Int64("seed", 1, "generator seed")
	damping := fs.Float64("damping", 0, "damping factor d in [0,1) applied to every engine run (0 keeps the vanilla fast path)")
	variantName := fs.String("variant", "vanilla", "update rule for every engine run: vanilla, damped or circular")
	outPath := fs.String("o", "", "also write the report to this file")
	trainPath := fs.String("train", "", "instead of running experiments, train the selection forest on the tier's dataset and save it here (JSON, loadable by credo -model)")
	telemetryOn := fs.Bool("telemetry", false, "record telemetry from every engine run and print a convergence report after the experiments")
	traceOut := fs.String("trace-out", "", "stream telemetry events from every engine run to this file as JSONL")
	httpAddr := fs.String("http", "", "serve live telemetry on this address while the experiments run: /metrics, /debug/vars and /debug/pprof")
	if err := fs.Parse(args); err != nil {
		return err
	}

	tier, err := bench.TierByName(*tierName)
	if err != nil {
		return err
	}
	cfg := bench.DefaultConfig(tier)
	cfg.Seed = *seed
	cfg.PoolWorkers = *workers
	cfg.IngestWorkers = *ingestWorkers
	if *damping < 0 || *damping >= 1 {
		return fmt.Errorf("-damping %g outside [0,1)", *damping)
	}
	cfg.Options.Damping = float32(*damping)
	cfg.Options.Variant, err = kernel.ParseVariant(strings.ToLower(*variantName))
	if err != nil {
		return err
	}
	cfg.Options = cfg.Options.ResolveVariant()

	var probes []telemetry.Probe
	var recorder *telemetry.Recorder
	if *telemetryOn {
		recorder = telemetry.NewRecorder(0)
		probes = append(probes, recorder)
	}
	var traceFile *os.File
	var traceWriter *telemetry.JSONLWriter
	if *traceOut != "" {
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			return err
		}
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
		fmt.Fprintf(stdout, "telemetry: live metrics on http://%s/metrics (profiling on /debug/pprof)\n", server.Addr)
	}
	cfg.Options.Probe = telemetry.Multi(probes...)

	switch strings.ToLower(*engineName) {
	case "auto":
	case "pool":
		if *expID == "all" {
			*expID = "pool"
		}
	case "relax":
		if *expID == "all" {
			*expID = "relax"
		}
	default:
		return fmt.Errorf("unknown engine %q (want auto, pool or relax)", *engineName)
	}

	if *trainPath != "" {
		return trainModel(*trainPath, cfg, stdout)
	}

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = io.MultiWriter(stdout, f)
	}

	var exps []bench.Experiment
	if *expID == "all" {
		exps = bench.Experiments()
	} else {
		for _, id := range strings.Split(*expID, ",") {
			e, ok := bench.ByID(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (ids: %s)", id, idList())
			}
			exps = append(exps, e)
		}
	}

	for i, e := range exps {
		if i > 0 {
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "==== %s: %s ====\n", e.ID, e.Title)
		start := time.Now()
		if err := e.Run(out, cfg); err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		fmt.Fprintf(out, "[%s completed in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
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
		fmt.Fprintln(out)
		telemetry.WriteConvergenceReport(out, recorder.Events())
	}
	return nil
}

// trainModel builds the classifier dataset, trains the paper's tuned
// random forest and saves it.
func trainModel(path string, cfg bench.Config, out io.Writer) error {
	ds, err := bench.BuildDataset(bench.Table1(), bench.UseCases(), cfg)
	if err != nil {
		return err
	}
	forest := &ml.RandomForest{Trees: 14, MaxDepth: 6, Seed: cfg.Seed}
	if err := forest.Fit(ds.X, ds.Y); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ml.SaveForest(f, forest); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "trained on %d labeled variants (tier %s); model saved to %s\n", len(ds.X), cfg.Tier.Name, path)
	return nil
}

func idList() string {
	var ids []string
	for _, e := range bench.Experiments() {
		ids = append(ids, e.ID)
	}
	return strings.Join(ids, ", ")
}
