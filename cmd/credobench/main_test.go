package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "table1", "-tier", "ci"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "soc-twitter-2010") {
		t.Errorf("table1 output incomplete:\n%s", out.String())
	}
}

func TestRunMultipleExperimentsToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.txt")
	var out bytes.Buffer
	if err := run([]string{"-exp", "table1,aossoa", "-tier", "ci", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "AoS") {
		t.Errorf("file report incomplete:\n%s", data)
	}
	if out.String() != string(data) {
		t.Error("stdout and file reports differ")
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "fig99"},
		{"-tier", "galactic"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v: want error", args)
		}
	}
}

func TestTrainAndUseModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.json")
	var out bytes.Buffer
	if err := run([]string{"-train", path, "-tier", "ci"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "model saved to") {
		t.Errorf("training output: %s", out.String())
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

// TestTelemetryExperimentSeedReproducible locks the -seed plumbing end
// to end: the telemetry experiment's report — update counts, iteration
// trajectories, event totals — must be identical across runs with the
// same seed for every engine that promises it. Runs that vary run to run
// (cuda.edge, whose float atomic adds commit in goroutine order) are
// printed below a marked line, which the comparison cuts at; the run must
// still be there and converge.
func TestTelemetryExperimentSeedReproducible(t *testing.T) {
	report := func(seed string) (fixed, varying string) {
		var out bytes.Buffer
		if err := run([]string{"-exp", "telemetry", "-tier", "ci", "-seed", seed, "-workers", "1"}, &out); err != nil {
			t.Fatal(err)
		}
		s := out.String()
		i := strings.Index(s, "varies run to run")
		if i < 0 {
			t.Fatalf("report has no varies-run-to-run section:\n%s", s)
		}
		return s[:i], s[i:]
	}
	a, va := report("42")
	b, _ := report("42")
	if a != b {
		t.Errorf("same seed, different reports:\n--- first\n%s\n--- second\n%s", a, b)
	}
	if !strings.Contains(a, "seed 42") {
		t.Errorf("report does not echo the seed:\n%s", a)
	}
	if !regexp.MustCompile(`(?m)^cuda\.edge\s+\d+\s+true\s`).MatchString(va) {
		t.Errorf("report has no converged cuda.edge row below the line:\n%s", va)
	}
}

// TestRobustExperimentReproducible locks the deterministic body of the
// robust report — the converged-fraction table and the per-case selector
// table — across runs (the adversarial corpus carries its own seeds), and
// pins the acceptance shape: vanilla converges nowhere on the corpus,
// damping rescues every case, and the oscillation-risk selector never
// picks a variant that is pinned diverging.
func TestRobustExperimentReproducible(t *testing.T) {
	report := func() string {
		var out bytes.Buffer
		if err := run([]string{"-exp", "robust", "-tier", "ci", "-workers", "4"}, &out); err != nil {
			t.Fatal(err)
		}
		// The wall-clock footer varies run to run; everything above it
		// must not.
		s := out.String()
		if i := strings.Index(s, "wall-clock"); i >= 0 {
			s = s[:i]
		}
		return s
	}
	a, b := report(), report()
	if a != b {
		t.Errorf("same corpus, different reports:\n--- first\n%s\n--- second\n%s", a, b)
	}
	for _, want := range []string{"0/7", "7/7"} {
		if !strings.Contains(a, want) {
			t.Errorf("report lacks the pinned convergence shape %q:\n%s", want, a)
		}
	}
	if strings.Contains(a, "selector miss") {
		t.Errorf("selector picked a pinned-diverging variant:\n%s", a)
	}
}

// TestBenchTelemetryFlags exercises credobench's own sinks: -trace-out
// must capture every engine run of the experiment as JSONL and
// -telemetry must append the convergence report.
func TestBenchTelemetryFlags(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "bench.jsonl")
	var out bytes.Buffer
	if err := run([]string{"-exp", "telemetry", "-tier", "ci", "-telemetry", "-trace-out", trace}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "convergence trajectories") {
		t.Errorf("missing convergence report:\n%s", out.String())
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		var m struct {
			Kind   string `json:"kind"`
			Engine string `json:"engine"`
		}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("trace line is not JSON: %v\n%s", err, line)
		}
		if m.Kind == "run_end" {
			engines[m.Engine] = true
		}
	}
	for _, want := range []string{"bp.node", "bp.edge", "bp.residual", "pool.node", "relax", "omp.node", "cuda.edge"} {
		if !engines[want] {
			t.Errorf("trace has no run_end for %s (saw %v)", want, engines)
		}
	}
}
