package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runSteady is the steadiness tool: it runs every workload n times as
// separate processes, interleaved round by round with the order
// reversed every other round (so host drift lands on every workload
// alike), each round on its own seed, and prints each metric's median,
// quartiles, quartile spread and max/min ratio. Bounds come from these
// figures; two invocations on one commit show whether they agree.
func runSteady(n int, seed0 int64, seconds, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	units := map[key]string{}
	var keys []key
	for round := 0; round < n; round++ {
		order := make([]workload, len(workloads))
		copy(order, workloads)
		if round%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		seed := seed0 + int64(round)
		for _, w := range order {
			cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			res, err := lastResult(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			fmt.Fprintf(os.Stderr, "steady: round %d %s seed %d correct=%v attempted=%d failed=%d\n",
				round, w.Name, seed, res.Correct, res.Attempted, res.Failed)
			for _, line := range strings.Split(string(out), "\n") {
				if strings.Contains(line, "check failed") {
					fmt.Fprintln(os.Stderr, "steady:", line)
				}
			}
			names := make([]string, 0, len(res.Metrics))
			for name := range res.Metrics {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				k := key{w.Name, name}
				if _, ok := values[k]; !ok {
					keys = append(keys, k)
				}
				values[k] = append(values[k], res.Metrics[name].Value)
				units[k] = res.Metrics[name].Unit
			}
		}
	}
	fmt.Printf("%-9s %-36s %8s %12s %12s %12s %8s %8s\n",
		"workload", "metric", "unit", "median", "q1", "q3", "iqr/med", "max/min")
	for _, k := range keys {
		fmt.Println(spreadLine(k.workload, k.metric, units[k], values[k]))
	}
	return nil
}

func spreadLine(workload, metric, unit string, xs []float64) string {
	med := median(xs)
	q1, q3 := quartiles(xs)
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	spread, ratio := 0.0, 0.0
	if med != 0 {
		spread = (q3 - q1) / med
	}
	if lo != 0 {
		ratio = hi / lo
	}
	return fmt.Sprintf("%-9s %-36s %8s %12.4f %12.4f %12.4f %8.3f %8.3f",
		workload, metric, unit, med, q1, q3, spread, ratio)
}

// lastResult parses the JSON result on the last non-empty line of a
// run's standard output.
func lastResult(out []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("no JSON result on the last line: %w", err)
	}
	return &res, nil
}
