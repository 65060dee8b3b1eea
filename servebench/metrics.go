package main

import "fmt"

// metricSpec names a reported metric and its unit. The lists below are
// the benchmark's contract; BENCHMARK.json repeats them, and a test
// keeps the two in step.
type metricSpec struct {
	Name string
	Unit string
}

// metric is one reported figure.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// endToEnd are the metrics a user of the daemon sees, reported by every
// untraced run.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p75_ms", "ms"},
	{"update_p50_ms", "ms"},
	{"update_p75_ms", "ms"},
	{"visible_p50_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"peak_rss_mb", "MiB"},
	{"ok_frac", "ratio"},
}

// perLayer are the traced mode's metrics; README.md maps each to the
// end-to-end metric it should move.
var perLayer = []metricSpec{
	{"mtxbp.read_ms", "ms"},
	{"mtxbp.mb_per_s", "MB/s"},
	{"graph.validate_ms", "ms"},
	{"graph.stats_ms", "ms"},
	{"serve.decode_us", "us"},
	{"graph.copy_state_us", "us"},
	{"serve.query_solo_ms", "ms"},
	{"bp.residual_updates", "count"},
	{"bp.residual_from_ms", "ms"},
	{"serve.query_batch_ms", "ms"},
	{"bp.batch_sweeps", "count"},
	{"graph.batch_reset_us", "us"},
	{"bp.batch_ms", "ms"},
	{"kernel.batch_ns_per_edge_state_lane", "ns"},
	{"kernel.ns_per_edge_state", "ns"},
	{"serve.flush_lanes", "count"},
	{"kernel.lane_util", "ratio"},
	{"serve.encode_us", "us"},
	{"serve.resp_kb", "KiB"},
	{"serve.update_ms", "ms"},
	{"graph.merge_ms", "ms"},
	{"graph.seeds_per_update", "count"},
	{"bp.cold_batch_ms", "ms"},
	{"serve.warm_frac", "ratio"},
	{"serve.update_wait_ms", "ms"},
	{"serve.remainder_ms", "ms"},
	{"harness.late_p99_ms", "ms"},
	{"harness.trace_overhead_pct", "%"},
}

// collect orders values by specs, failing on any metric left unset.
func collect(specs []metricSpec, values map[string]float64) ([]metric, error) {
	out := make([]metric, 0, len(specs))
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", s.Name)
		}
		out = append(out, metric{s.Name, s.Unit, v})
	}
	if len(values) != len(specs) {
		return nil, fmt.Errorf("%d metrics measured, %d specified", len(values), len(specs))
	}
	return out, nil
}
