package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestScheduleDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a := makeSchedule(w, 7, 5*time.Second)
		b := makeSchedule(w, 7, 5*time.Second)
		c := makeSchedule(w, 8, 5*time.Second)
		if !sameSchedule(a, b) {
			t.Errorf("%s: seed 7 gave two different schedules", w.Name)
		}
		if sameSchedule(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.Name)
		}
		var queries, updates int
		for i, r := range a.Requests {
			if i > 0 && r.Due < a.Requests[i-1].Due {
				t.Fatalf("%s: request %d due before its predecessor", w.Name, i)
			}
			if r.Update {
				updates++
			} else {
				queries++
			}
		}
		if queries == 0 || updates == 0 {
			t.Errorf("%s: %d queries and %d updates in 6 s", w.Name, queries, updates)
		}
	}
}

func sameSchedule(a, b *schedule) bool {
	if len(a.Requests) != len(b.Requests) {
		return false
	}
	for i := range a.Requests {
		ra, rb := &a.Requests[i], &b.Requests[i]
		if ra.Due != rb.Due || ra.Update != rb.Update ||
			!bytes.Equal(ra.Body, rb.Body) || !bytes.Equal(ra.Probe, rb.Probe) {
			return false
		}
	}
	return true
}

func TestUpdatesCarryOneArrivalAndItsProbe(t *testing.T) {
	for _, w := range workloads {
		sc := makeSchedule(w, 3, 5*time.Second)
		for i, r := range sc.Requests {
			if !r.Update {
				continue
			}
			if r.Muts[0].Node != r.Arrival.Node || r.Muts[0].State != r.Arrival.State {
				t.Fatalf("%s: update %d does not lead with its arrival", w.Name, i)
			}
			var doc struct{ Nodes []string }
			if err := json.Unmarshal(r.Probe, &doc); err != nil || len(doc.Nodes) != 1 || doc.Nodes[0] != nodeRef(r.Arrival.Node) {
				t.Fatalf("%s: update %d probe %s does not ask for its arrival", w.Name, i, r.Probe)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{4, 2, 3}, 50); got != 3 {
		t.Errorf("median of 3 = %v, want 3", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	if xs[0] != 9 {
		t.Error("percentile reordered its input")
	}
}

// The steadiness rule is Python's statistics.quantiles(xs, n=4); the
// wanted values are what Python prints.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 9, 2, 7, 3}, 1.75, 7.5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(s.Name) || !unitName.MatchString(s.Unit) {
			t.Errorf("metric %q unit %q breaks the naming rule", s.Name, s.Unit)
		}
		if seen[s.Name] {
			t.Errorf("metric %q listed twice", s.Name)
		}
		seen[s.Name] = true
	}
	if _, err := collect(endToEnd, map[string]float64{"setup_s": 1}); err == nil {
		t.Error("collect accepted a run missing metrics")
	}
}

// BENCHMARK.json must list exactly the metrics the harness prints.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(a, b []metricSpec) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if !same(spec.EndToEnd, endToEnd) || !same(spec.PerLayer, perLayer) {
		t.Error("BENCHMARK.json metrics differ from the harness's")
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].Name)
		}
	}
}

// A shed (429) or a transport error fails the request and charges it
// the timeout; only a wrong answer or an unexpected status marks the run
// incorrect.
func TestTallyCountsShedAndErrorsAsFailed(t *testing.T) {
	w := workload{Name: "t", Nodes: 100, States: 2}
	ok := []byte(`{"warm":true,"beliefs":{"1":[0.25,0.75]}}`)
	q := request{Due: leadIn, Nodes: []int32{1}}
	sc := &schedule{Requests: []request{q, q, q, q, {Due: 0, Nodes: []int32{1}}}}
	outs := []outcome{
		{Sent: true, Status: http.StatusOK, Body: ok, Latency: time.Millisecond},
		{Sent: true, Status: http.StatusTooManyRequests, Latency: time.Millisecond},
		{Sent: true, Err: errors.New("connection reset"), Latency: time.Millisecond},
		{Sent: false},
		{Sent: true, Status: http.StatusTooManyRequests}, // lead-in: not counted
	}
	tl := tally(w, sc, outs)
	if tl.attempted != 4 || tl.failed != 3 || !tl.correct {
		t.Fatalf("attempted %d failed %d correct %v, want 4, 3, true", tl.attempted, tl.failed, tl.correct)
	}
	timeout := float64(requestTimeout) / 1e6
	want := []float64{1, timeout, timeout, timeout}
	for i, l := range tl.qlat {
		if l != want[i] {
			t.Errorf("latency %d = %v ms, want %v", i, l, want[i])
		}
	}

	outs[1] = outcome{Sent: true, Status: http.StatusInternalServerError}
	if tl := tally(w, sc, outs); tl.failed != 3 || tl.correct {
		t.Errorf("a 500 gave failed %d correct %v, want 3, false", tl.failed, tl.correct)
	}
	outs[1] = outcome{Sent: true, Status: http.StatusOK, Body: []byte(`{"beliefs":{"1":[0.5,0.6]}}`)}
	if tl := tally(w, sc, outs); tl.failed != 3 || tl.correct {
		t.Errorf("an unnormalized belief gave failed %d correct %v, want 3, false", tl.failed, tl.correct)
	}
}

func TestProbeMustShowItsClamp(t *testing.T) {
	w := workload{Name: "t", Nodes: 100, States: 2}
	u := request{Due: leadIn, Update: true, Arrival: clamp{Node: 4, State: 1}}
	sc := &schedule{Requests: []request{u}}
	upd := []byte(`{"applied":0}`)
	shows := []byte(`{"beliefs":{"4":[0,1]}}`)
	lacks := []byte(`{"beliefs":{"4":[0.4,0.6]}}`)
	for _, c := range []struct {
		body   []byte
		failed int
	}{{shows, 0}, {lacks, 1}} {
		outs := []outcome{{Sent: true, Status: http.StatusOK, Body: upd, Probe: http.StatusOK, PBody: c.body}}
		tl := tally(w, sc, outs)
		if tl.attempted != 2 || tl.failed != c.failed || tl.correct != (c.failed == 0) {
			t.Errorf("probe %s: attempted %d failed %d correct %v", c.body, tl.attempted, tl.failed, tl.correct)
		}
	}
}
