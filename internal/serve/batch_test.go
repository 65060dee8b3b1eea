package serve

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"credo/internal/bp"
	"credo/internal/telemetry"
)

// batchDocs builds n distinct query documents over the grid resident —
// different evidence per lane, a node subset on some.
func batchDocs(n int) []string {
	docs := make([]string, n)
	for i := range docs {
		switch {
		case i == 0:
			docs[i] = `{}`
		case i%3 == 0:
			docs[i] = fmt.Sprintf(`{"evidence":[{"node":"%d","state":%d},{"node":"%d","state":%d}]}`,
				(i*7)%256, i%2, (i*13+3)%256, (i+1)%2)
		default:
			docs[i] = fmt.Sprintf(`{"evidence":[{"node":"%d","state":%d}]}`, (i*7)%256, i%2)
		}
	}
	return docs
}

// TestQueryBatchedMatchesSolo is the serving-layer differential: every
// lane of a cold batch flush must land within WarmTol of the same query
// served solo on a fresh server — the batch must not change answers.
// The flush also counts once, at its occupancy, on the batch counters.
func TestQueryBatchedMatchesSolo(t *testing.T) {
	m := &telemetry.Metrics{}
	s, r := newGridServer(t, Config{Options: bp.Options{Probe: m}})
	docs := batchDocs(6)
	rqs := make([]*ResolvedQuery, len(docs))
	for i, d := range docs {
		rqs[i] = decode(t, r, d)
	}
	out, err := s.QueryBatched(r, rqs)
	if err != nil {
		t.Fatalf("QueryBatched: %v", err)
	}
	if len(out) != len(docs) {
		t.Fatalf("got %d responses, want %d", len(out), len(docs))
	}
	for i, resp := range out {
		if resp.Engine != EngineBatch {
			t.Errorf("lane %d: engine %q, want %q", i, resp.Engine, EngineBatch)
		}
		if resp.Warm || !resp.Converged {
			t.Errorf("lane %d: warm=%v converged=%v, want cold converged", i, resp.Warm, resp.Converged)
		}
		soloSrv, soloRes := newGridServer(t, Config{})
		solo, err := soloSrv.QueryResident(soloRes, EngineAuto, decode(t, soloRes, docs[i]))
		if err != nil {
			t.Fatalf("solo lane %d: %v", i, err)
		}
		if gap := maxBeliefGap(t, resp, solo); gap > WarmTol {
			t.Errorf("lane %d: belief gap %g vs solo, tol %g", i, gap, WarmTol)
		}
		if resp.Updates <= 0 || resp.Edges <= 0 || resp.Iterations <= 0 {
			t.Errorf("lane %d: empty accounting %+v", i, resp)
		}
	}
	var text bytes.Buffer
	m.WriteText(&text)
	for _, want := range []string{"credo_serve_batch_flushes 1\n", "credo_serve_batch_occupancy 6\n"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("metrics text misses %q:\n%s", want, text.String())
		}
	}
}

// TestQueryBatchedWarmStart locks the batcher's warm staging: a second
// flush adopts the snapshot the first stored, reports warm, re-converges
// in fewer sweeps than the cold flush, and still lands within WarmTol of
// a cold run of the same evidence.
func TestQueryBatchedWarmStart(t *testing.T) {
	s, r := newGridServer(t, Config{})
	first, err := s.QueryBatched(r, []*ResolvedQuery{
		decode(t, r, `{"evidence":[{"node":"136","state":1}]}`),
		decode(t, r, `{"evidence":[{"node":"40","state":0}]}`),
	})
	if err != nil {
		t.Fatalf("cold flush: %v", err)
	}
	if first[0].Warm || !r.HasWarm() {
		t.Fatalf("cold flush: warm=%v hasWarm=%v", first[0].Warm, r.HasWarm())
	}

	warmDoc := `{"evidence":[{"node":"40","state":0},{"node":"137","state":1}]}`
	warm, err := s.QueryBatched(r, []*ResolvedQuery{decode(t, r, warmDoc)})
	if err != nil {
		t.Fatalf("warm flush: %v", err)
	}
	if !warm[0].Warm || !warm[0].Converged {
		t.Fatalf("warm flush: warm=%v converged=%v", warm[0].Warm, warm[0].Converged)
	}
	if warm[0].Iterations >= first[0].Iterations {
		t.Errorf("warm flush took %d sweeps, cold took %d — the snapshot bought nothing",
			warm[0].Iterations, first[0].Iterations)
	}

	coldSrv, coldRes := newGridServer(t, Config{})
	cold, err := coldSrv.QueryBatched(coldRes, []*ResolvedQuery{decode(t, coldRes, warmDoc)})
	if err != nil {
		t.Fatalf("cold reference: %v", err)
	}
	if gap := maxBeliefGap(t, warm[0], cold[0]); gap > WarmTol {
		t.Errorf("warm flush gap %g vs cold, tol %g", gap, WarmTol)
	}
}

// TestQueryBatchedValidation pins the flush-size contract.
func TestQueryBatchedValidation(t *testing.T) {
	s, r := newGridServer(t, Config{})
	if _, err := s.QueryBatched(r, nil); err == nil {
		t.Error("empty flush accepted")
	}
	rq := decode(t, r, `{}`)
	rqs := make([]*ResolvedQuery, DefaultBatchK+1)
	for i := range rqs {
		rqs[i] = rq
	}
	if _, err := s.QueryBatched(r, rqs); err == nil {
		t.Error("over-capacity flush accepted")
	}
}

// TestQueryBatchedAfterEdgeAdd: pooled batch states are node-shaped and
// the batched engine reads edges from the base, so a flush after an edge
// add — on a state pooled before it — must answer for the merged graph.
func TestQueryBatchedAfterEdgeAdd(t *testing.T) {
	s, r := newGridServer(t, Config{})
	doc := `{"evidence":[{"node":"17","state":1}]}`
	if _, err := s.QueryBatched(r, []*ResolvedQuery{decode(t, r, doc)}); err != nil {
		t.Fatal(err)
	}
	ru, err := r.DecodeUpdate([]byte(`{"updates":[{"op":"edge","src":"3","dst":"250"},{"op":"edge","src":"250","dst":"3"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.UpdateResident(r, ru); err != nil {
		t.Fatal(err)
	}
	out, err := s.QueryBatched(r, []*ResolvedQuery{decode(t, r, doc)})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Warm || !out[0].Converged {
		t.Fatalf("flush after an edge add: warm=%v converged=%v, want cold converged", out[0].Warm, out[0].Converged)
	}
	oracle := coldOracle(t, r, map[int32]int{17: 1})
	if gap := worstGap(t, out[0], oracle); gap > float64(WarmTol) {
		t.Errorf("flush after an edge add off by %g from the merged graph's oracle (want <= %g)", gap, float64(WarmTol))
	}
}
