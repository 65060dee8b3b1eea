// Command servebench is the repository's end-to-end and per-layer
// benchmark for credoserved. Run it through run.sh from the repository
// root, which builds the daemon and this harness from the tree first:
//
//	bash servebench/run.sh --workload watch --seed 1 --seconds 20 --trace 0
//	bash servebench/run.sh --workload feed --seed 1 --seconds 20 --trace 1
//	bash servebench/run.sh --steady 5 --seconds 20
//
// With --trace 0 it launches the real daemon, drives the workload's
// seeded open loop over loopback, checks every answer and prints the
// end-to-end metrics. With --trace 1 it does the same run, then replays
// the same requests in-process through each layer's exported calls and
// prints the per-layer metrics, writing the spans to .bench_build/spans.
// The last line of standard output is always the JSON result; see
// README.md for the metrics, the workloads and the steadiness findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"
)

func main() {
	fs := flag.NewFlagSet("servebench", flag.ExitOnError)
	name := fs.String("workload", "watch", "workload to run: watch, frontier or feed")
	seed := fs.Int64("seed", 1, "seed of the request schedule (each workload's graph is fixed)")
	seconds := fs.Int("seconds", 30, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 replays the run in-process through each layer and reports per-layer metrics")
	root := fs.String("root", ".", "repository checkout holding .bench_build")
	steady := fs.Int("steady", 0, "steadiness mode: run every workload this many times, interleaved, and print each metric's spread")
	fs.Parse(os.Args[1:])

	go stopOnSignal()
	if *steady > 0 {
		if err := runSteady(*steady, *seed, *seconds, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			os.Exit(1)
		}
		return
	}
	w, err := workloadByName(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	window := time.Duration(*seconds) * time.Second
	res, err := runUntraced(w, *seed, window, *root)
	var out *result
	if err == nil {
		out = &result{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed}
		for _, line := range res.Info {
			fmt.Println("servebench:", line)
		}
		metrics := res.Metrics
		if *trace == 1 {
			metrics, err = runTraced(w, *seed, *root, res)
		}
		out.setMetrics(metrics)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	for _, m := range out.order {
		fmt.Printf("servebench: %-40s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	order     []metric
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) setMetrics(ms []metric) {
	r.order = ms
	r.Metrics = make(map[string]metricValue, len(ms))
	for _, m := range ms {
		r.Metrics[m.Name] = metricValue{m.Value, m.Unit}
	}
}

// Live daemons, stopped if the harness itself is interrupted: launch
// registers each one, stop unregisters it.
var (
	liveMu sync.Mutex
	live   = map[*daemon]bool{}
)

func register(d *daemon) {
	liveMu.Lock()
	live[d] = true
	liveMu.Unlock()
}

func unregister(d *daemon) {
	liveMu.Lock()
	delete(live, d)
	liveMu.Unlock()
}

func stopOnSignal() {
	c := make(chan os.Signal, 1)
	signal.Notify(c, os.Interrupt, syscall.SIGTERM)
	<-c
	liveMu.Lock()
	ds := make([]*daemon, 0, len(live))
	for d := range live {
		ds = append(ds, d)
	}
	liveMu.Unlock()
	for _, d := range ds {
		d.stop()
	}
	os.Exit(3)
}
