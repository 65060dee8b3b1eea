package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"credo/internal/gen"
	"credo/internal/graph"
)

// runResult is one untraced run: the end-to-end metrics plus what the
// traced mode compares its in-process replay against.
type runResult struct {
	Attempted, Failed int
	Correct           bool
	Metrics           []metric
	Info              []string

	Files     graphFiles
	Sched     *schedule
	QueryP50  float64 // ms
	UpdateP50 float64 // ms
	LateP99   float64 // ms
	Prom      map[string]float64
	Oracle    *graph.Graph
}

// warmupQueries are sent one at a time before the open-loop clock
// starts: the first is the cold run every launch pays once (≈5–6 s on
// the GO-scale graph), the rest let the warm path settle.
const warmupQueries = 4

// runUntraced launches the daemon as deployed, drives the workload's
// open loop against it over loopback and checks every answer.
func runUntraced(w workload, seed int64, window time.Duration, root string) (*runResult, error) {
	build := filepath.Join(root, ".bench_build")
	bin := filepath.Join(build, "bin", "credoserved")
	files, err := ensureGraph(w, filepath.Join(build, "data"))
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	sc := makeSchedule(w, seed, window)
	res := &runResult{Files: files, Sched: sc, Correct: true}
	phase := time.Now()
	phases := func(name string) {
		res.Info = append(res.Info, fmt.Sprintf("phase %s took %.2f s", name, time.Since(phase).Seconds()))
		phase = time.Now()
	}
	phases("inputs")
	res.Info = append(res.Info, fmt.Sprintf("inputs: %s %d bytes, %s %d bytes",
		filepath.Base(files.Nodes), files.NodeBytes, filepath.Base(files.Edges), files.EdgeBytes))

	// Set-up: every launch is timed; all but the last are torn down.
	var setups []float64
	var d *daemon
	for i := 0; i < w.Launches; i++ {
		var took time.Duration
		d, took, err = launch(bin, files)
		if err != nil {
			return nil, fmt.Errorf("launch %d: %w", i, err)
		}
		setups = append(setups, took.Seconds())
		if i < w.Launches-1 {
			d.stop()
		}
	}
	phases("setup")
	defer d.stop()

	qurl := "http://" + d.addr + "/v1/query"
	if w.Engine != "" {
		qurl += "?engine=" + w.Engine
	}
	warm := newClient()
	nq := 0
	for i := range sc.Requests {
		if r := &sc.Requests[i]; !r.Update && nq < warmupQueries {
			nq++
			if st, body, err := post(warm, qurl, r.Body); err != nil || st != http.StatusOK {
				return nil, fmt.Errorf("warm-up query: status %d, %v %s", st, err, body)
			}
		}
	}
	warm.CloseIdleConnections()
	phases("warm-up")

	start := time.Now().Add(20 * time.Millisecond)
	cpu0 := make(chan time.Duration, 1)
	go func() {
		time.Sleep(time.Until(start.Add(leadIn)))
		c, _ := d.cpuTime()
		cpu0 <- c
	}()
	outs := drive(d.addr, w.Engine, w.Serial, sc, start, start.Add(leadIn+window+30*time.Second))
	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	cpu := cpu1 - <-cpu0
	rss, err := d.peakRSS()
	if err != nil {
		return nil, err
	}
	if res.Prom, err = d.scrape(); err != nil {
		return nil, err
	}
	final := newClient()
	fst, fbody, ferr := post(final, qurl, queryDoc(sc.Base, nil))
	final.CloseIdleConnections()
	d.stop()
	phases("open loop")

	// Checks, after the timed window so they cost the daemon nothing.
	t := tally(w, sc, outs)
	res.Attempted, res.Failed, res.Correct = t.attempted, t.failed, t.correct
	res.Info = append(res.Info, t.failures...)

	// The final answer against the harness's own cold oracle.
	res.Attempted++
	if ferr != nil || fst != http.StatusOK {
		res.Failed++
		res.Correct = false
		res.Info = append(res.Info, fmt.Sprintf("check failed: final query: status %d, %v", fst, ferr))
	} else {
		oracle, ores, err := oracleGraph(files, t.acked, sc.Base, w.Engine == "")
		if err != nil {
			return nil, err
		}
		res.Oracle = oracle
		worst, err := checkOracle(fbody, oracle)
		if err != nil {
			res.Failed++
			res.Correct = false
			res.Info = append(res.Info, "check failed: "+err.Error())
		}
		res.Info = append(res.Info, fmt.Sprintf("oracle: %d acknowledged updates replayed, cold run converged=%v in %d iterations, worst per-node L1 %.3g (tolerance %g)",
			len(t.acked), ores.Converged, ores.Iterations, worst, oracleTol))
	}
	phases("checks")

	res.QueryP50 = median(t.qlat)
	res.UpdateP50 = median(t.ulat)
	res.LateP99 = percentile(t.late, 99)
	res.Info = append(res.Info, fmt.Sprintf("samples: %d queries (%d answered cold), %d updates, %d probes in a %v window after a %v lead-in; generator late p99 %.3f ms",
		len(t.qlat), t.cold, len(t.ulat), len(t.vlat), window, leadIn, res.LateP99))
	res.Info = append(res.Info, fmt.Sprintf("daemon: %d queries served, %d warm, %.0f batch flushes, %d ms CPU in the window",
		int(res.Prom["credo_serve_queries_total"]), int(res.Prom["credo_serve_warm_total"]),
		res.Prom["credo_serve_batch_flushes"], cpu.Milliseconds()))
	okFrac := float64(res.Attempted-res.Failed) / float64(res.Attempted)
	cpuPerReq := 0.0
	if t.completed > 0 {
		cpuPerReq = float64(cpu) / 1e6 / float64(t.completed)
	}
	res.Metrics, err = collect(endToEnd, map[string]float64{
		"setup_s":        median(setups),
		"query_p50_ms":   percentile(t.qlat, 50),
		"query_p75_ms":   percentile(t.qlat, 75),
		"update_p50_ms":  percentile(t.ulat, 50),
		"update_p75_ms":  percentile(t.ulat, 75),
		"visible_p50_ms": percentile(t.vlat, 50),
		"cpu_ms_per_req": cpuPerReq,
		"peak_rss_mb":    float64(rss) / (1 << 20),
		"ok_frac":        okFrac,
	})
	return res, err
}

// tallied is the scored open loop: counts, latency samples in ms (a
// failed request counts as requestTimeout, missing every latency
// limit), and the updates the daemon acknowledged.
type tallied struct {
	attempted, failed, completed, cold int
	correct                            bool
	failures                           []string
	qlat, ulat, vlat, late             []float64
	acked                              [][]gen.Mutation
}

// tally scores every outcome. Only requests due inside the measured
// window count; each update's probe is a request of its own. A 429 or a
// transport error fails a request without marking the answers wrong;
// any other non-200 status, or an answer that fails its check, does
// both.
func tally(w workload, sc *schedule, outs []outcome) *tallied {
	t := &tallied{correct: true}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	timeout := ms(requestTimeout)
	fail := func(err error, wrong bool) {
		t.failed++
		if wrong {
			t.correct = false
			if len(t.failures) < 20 {
				t.failures = append(t.failures, "check failed: "+err.Error())
			}
		}
	}
	check := func(sent bool, err error, status int, body []byte, verify func([]byte) error) (error, bool) {
		if !sent || err != nil || status != http.StatusOK {
			return fmt.Errorf("status %d, %v", status, err), sent && err == nil && status != http.StatusTooManyRequests
		}
		if err := verify(body); err != nil {
			return err, true
		}
		return nil, false
	}
	for i := range sc.Requests {
		r, o := &sc.Requests[i], &outs[i]
		if o.Slept {
			t.late = append(t.late, ms(o.Late))
		}
		if r.Update {
			if applied := appliedOps(o); applied > 0 {
				t.acked = append(t.acked, r.Muts[:applied])
			}
		}
		if r.Due < leadIn {
			continue
		}
		t.attempted++
		if o.Sent && o.Err == nil {
			t.completed++
		}
		lat := ms(o.Latency)
		if !r.Update {
			warm := false
			err, wrong := check(o.Sent, o.Err, o.Status, o.Body, func(b []byte) (err error) {
				warm, err = checkQuery(b, r, w.Nodes, w.States)
				return err
			})
			if err != nil {
				fail(fmt.Errorf("query %d: %w", i, err), wrong)
				lat = timeout
			} else if !warm {
				t.cold++
			}
			t.qlat = append(t.qlat, lat)
			continue
		}
		err, wrong := check(o.Sent, o.Err, o.Status, o.Body, func(b []byte) error { return checkUpdate(b, r) })
		if err != nil {
			fail(fmt.Errorf("update %d: %w", i, err), wrong)
			lat = timeout
		}
		t.ulat = append(t.ulat, lat)

		t.attempted++
		vis := ms(o.Visible)
		perr, pwrong := fmt.Errorf("its update failed"), false
		if o.Probe != 0 || o.ProbeErr != nil {
			if o.ProbeErr == nil {
				t.completed++
			}
			perr, pwrong = check(true, o.ProbeErr, o.Probe, o.PBody, func(b []byte) error { return checkProbe(b, r, w.States) })
		}
		if perr != nil {
			fail(fmt.Errorf("probe %d: %w", i, perr), pwrong)
			vis = timeout
		}
		t.vlat = append(t.vlat, vis)
	}
	return t
}

// appliedOps reports how many of an update's operations the daemon
// acknowledged as landed: all of them on success, the reported prefix
// when it rejected one mid-batch, none when the exchange failed.
func appliedOps(o *outcome) int {
	if !o.Sent || o.Err != nil {
		return 0
	}
	var resp updateResponse
	if err := json.Unmarshal(o.Body, &resp); err != nil {
		return 0
	}
	return resp.Applied
}
