package bench

import (
	"fmt"
	"io"

	"credo/internal/bp"
	"credo/internal/cudabp"
	"credo/internal/gpusim"
	"credo/internal/ompbp"
	"credo/internal/poolbp"
	"credo/internal/relaxbp"
	"credo/internal/telemetry"
)

// RunTelemetry exercises the probe layer end-to-end: every engine runs
// the same representative loopy graph with a ring-buffer recorder
// attached, the per-engine event streams are summarized in a table, and
// the recorded residual trajectories are rendered as the convergence
// sparkline report. Any probe already in cfg.Options (credobench's own
// -trace-out / -http sinks) keeps receiving events alongside the
// recorder. Seeded generation makes the event stream of the deterministic
// engines reproducible: two invocations with the same -tier and -seed
// record identical iteration counts and update totals for them. Runs that
// cannot promise that record into a second recorder and are reported
// below a line that says they vary run to run, so nothing above that line
// depends on them.
func RunTelemetry(w io.Writer, cfg Config) error {
	workers := cfg.PoolWorkers
	if workers <= 0 {
		workers = 8
	}
	specs := boldSubset(sortedBySize(Table1()))
	spec := specs[len(specs)/2] // mid-size: every trajectory stays readable
	g, err := spec.Generate(2, cfg.Tier, cfg.Seed)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "telemetry — probe layer end-to-end on %s (%d nodes, %d edges; tier %s, %d workers, seed %d)\n",
		spec.Abbrev, g.NumNodes, g.NumEdges, cfg.Tier.Name, workers, cfg.Seed)

	// One worker pops the seeded relaxed MultiQueue in a fixed order;
	// several pop it in timing order.
	relaxVaries := ""
	if workers > 1 {
		relaxVaries = "workers pop the relaxed MultiQueue in timing order"
	}
	dev := gpusim.NewDevice(cfg.GPU)
	engines := []struct {
		name string
		// varies says why the run's counts are not reproducible; empty
		// for the deterministic engines.
		varies string
		run    func(o bp.Options) (bp.Result, error)
	}{
		{"bp.node", "", func(o bp.Options) (bp.Result, error) { return bp.RunNode(g.Clone(), o), nil }},
		{"bp.edge", "", func(o bp.Options) (bp.Result, error) { return bp.RunEdge(g.Clone(), o), nil }},
		{"bp.residual", "", func(o bp.Options) (bp.Result, error) { return bp.RunResidual(g.Clone(), o), nil }},
		{"pool.node", "", func(o bp.Options) (bp.Result, error) {
			return poolbp.RunNode(g.Clone(), poolbp.Options{Options: o, Workers: workers}), nil
		}},
		{"relax", relaxVaries, func(o bp.Options) (bp.Result, error) {
			return relaxbp.Run(g.Clone(), relaxbp.Options{Options: o, Workers: workers, Seed: cfg.Seed}), nil
		}},
		{"omp.node", "", func(o bp.Options) (bp.Result, error) {
			return ompbp.RunNode(g.Clone(), ompbp.Options{Options: o, Threads: workers}), nil
		}},
		{"cuda.edge", "gpusim commits float atomic adds in goroutine order, so a node near QueueThreshold can move in or out of the edge frontier", func(o bp.Options) (bp.Result, error) {
			r, err := cudabp.RunEdge(g.Clone(), dev, cudabp.Options{Options: o})
			return r.Result, err
		}},
	}

	fixed, varying := telemetry.NewRecorder(0), telemetry.NewRecorder(0)
	var fixedRuns, varyingRuns []telemetryRun
	var reasons []string
	for _, e := range engines {
		rec, runs := fixed, &fixedRuns
		if e.varies != "" {
			rec, runs = varying, &varyingRuns
			reasons = append(reasons, fmt.Sprintf("  %s: %s", e.name, e.varies))
		}
		o := cfg.Options
		o.WorkQueue = true
		o.Probe = telemetry.Multi(rec, cfg.Options.Probe)
		res, err := e.run(o)
		if err != nil {
			return err
		}
		*runs = append(*runs, telemetryRun{e.name, res})
	}

	writeTelemetryRuns(w, fixedRuns, fixed)
	fmt.Fprintln(w, "(each engine frames its run with run_start/run_end and emits one iteration event per sweep — residual and relaxed engines per sweep-equivalent batch of node updates — so trace volume is O(iterations), never O(messages))")
	if len(varyingRuns) > 0 {
		fmt.Fprintln(w, "\nvaries run to run (everything below):")
		for _, r := range reasons {
			fmt.Fprintln(w, r)
		}
		writeTelemetryRuns(w, varyingRuns, varying)
	}
	return nil
}

type telemetryRun struct {
	engine string
	res    bp.Result
}

// writeTelemetryRuns prints the per-engine table, the event total and the
// convergence trajectories of the runs recorded into rec.
func writeTelemetryRuns(w io.Writer, runs []telemetryRun, rec *telemetry.Recorder) {
	events := rec.Events()
	perEngine := make(map[string]int, len(runs))
	for _, e := range events {
		perEngine[e.Engine]++
	}
	fmt.Fprintf(w, "%-12s %6s %10s %12s %12s %9s %9s %8s\n",
		"engine", "iters", "converged", "updates", "messages", "stale", "wasted", "events")
	for _, r := range runs {
		fmt.Fprintf(w, "%-12s %6d %10v %12d %12d %9d %9d %8d\n",
			r.engine, r.res.Iterations, r.res.Converged,
			r.res.Ops.NodesProcessed, r.res.Ops.EdgesProcessed,
			r.res.Ops.StaleDrops, r.res.Ops.WastedUpdates, perEngine[r.engine])
	}
	fmt.Fprintf(w, "recorded %d events (%d overwritten by the ring)\n", len(events), rec.Dropped())
	fmt.Fprintln(w)
	telemetry.WriteConvergenceReport(w, events)
}
