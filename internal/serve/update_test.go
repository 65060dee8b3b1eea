package serve

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"credo/internal/bp"
	"credo/internal/gen"
	"credo/internal/graph"
	"credo/internal/telemetry"
)

// coldOracle converges a from-priors run of the resident's current base
// under the given dense evidence and returns the graph — the reference
// any served beliefs for that evidence are judged against.
func coldOracle(t *testing.T, r *Resident, evidence map[int32]int) *graph.Graph {
	t.Helper()
	o := r.base.Clone()
	o.ResetBeliefs()
	for v, s := range evidence {
		if err := o.Observe(v, s); err != nil {
			t.Fatal(err)
		}
	}
	if res := bp.RunResidual(o, bp.Options{}); !res.Converged {
		t.Fatalf("cold oracle did not converge (delta %g)", res.FinalDelta)
	}
	return o
}

// worstGap compares a response's beliefs against an oracle graph.
func worstGap(t *testing.T, resp *Response, oracle *graph.Graph) float64 {
	t.Helper()
	worst := 0.0
	for v := int32(0); v < int32(oracle.NumNodes); v++ {
		got, ok := resp.Beliefs.Of(v)
		if !ok {
			t.Fatalf("response missing node %d", v)
		}
		for i, w := range oracle.Belief(v) {
			if d := math.Abs(float64(got[i]) - float64(w)); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// TestWarmSnapshotStaleAfterBaseMutation: an update whose frontier is
// too large to re-converge (features.RecommendDelta vetoes it) drops the
// snapshot with the base it described. The next query, with the same
// evidence as the first and so an empty perturbation frontier, must run
// cold against the mutated base rather than serve the pre-update
// posteriors verbatim from a stale fixpoint.
func TestWarmSnapshotStaleAfterBaseMutation(t *testing.T) {
	s, r := newGridServer(t, Config{})
	q := decode(t, r, `{"evidence":[{"node":"17","state":1}]}`)
	first, err := s.QueryResident(r, EngineResidual, q)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Converged || !r.HasWarm() {
		t.Fatalf("first query converged=%v warm-cached=%v", first.Converged, r.HasWarm())
	}
	genBefore := r.Generation()

	// Drift every prior: a numeric delta whose frontier is the whole graph.
	var ops []string
	for v := 0; v < r.Metadata().NumNodes; v++ {
		p := 0.2 + 0.6*float64(v%7)/6
		ops = append(ops, fmt.Sprintf(`{"op":"prior","node":"%d","prior":[%g,%g]}`, v, p, 1-p))
	}
	ru, err := r.DecodeUpdate([]byte(`{"updates":[` + strings.Join(ops, ",") + `]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.UpdateResident(r, ru)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Structural || resp.Warm || resp.Updates != 0 {
		t.Fatalf("vetoed update answered structural=%v warm=%v updates=%d, want a numeric drop", resp.Structural, resp.Warm, resp.Updates)
	}
	if r.Generation() == genBefore {
		t.Fatal("mutation did not advance the generation")
	}
	if r.HasWarm() {
		t.Fatal("stale warm snapshot still reachable after base mutation")
	}

	second, err := s.QueryResident(r, EngineResidual, decode(t, r, `{"evidence":[{"node":"17","state":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if second.Warm {
		t.Fatal("query after base mutation took the warm path from a stale fixpoint")
	}
	if !second.Converged {
		t.Fatalf("post-mutation cold query did not converge (delta %g)", second.FinalDelta)
	}
	oracle := coldOracle(t, r, map[int32]int{17: 1})
	if gap := worstGap(t, second, oracle); gap > float64(WarmTol) {
		t.Errorf("post-mutation beliefs off by %g (want <= %g) — stale state leaked into the answer", gap, float64(WarmTol))
	}
	if !r.HasWarm() {
		t.Fatal("converged post-mutation query did not re-arm the warm cache")
	}
}

// TestUpdateReconvergesWarmSnapshot drives the endpoint's whole point:
// after a prior-drift delta, the warm snapshot has been re-converged in
// place, the next same-evidence query is served warm with zero or near
// zero work, and its beliefs match a cold run of the mutated graph.
func TestUpdateReconvergesWarmSnapshot(t *testing.T) {
	s, r := newGridServer(t, Config{})
	q := decode(t, r, `{"evidence":[{"node":"136","state":1}]}`)
	if _, err := s.QueryResident(r, EngineResidual, q); err != nil {
		t.Fatal(err)
	}

	ru, err := r.DecodeUpdate([]byte(`{"updates":[
		{"op":"prior","node":"40","prior":[0.9,0.1]},
		{"op":"evidence","node":"200","state":0},
		{"op":"prior","node":"41","prior":[0.2,0.8]}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.UpdateResident(r, ru)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Applied != 3 || resp.Structural {
		t.Fatalf("applied=%d structural=%v, want 3/false", resp.Applied, resp.Structural)
	}
	if !resp.Converged || !resp.Warm {
		t.Fatalf("update did not re-converge the snapshot (converged=%v warm=%v)", resp.Converged, resp.Warm)
	}
	if resp.Updates == 0 {
		t.Fatal("re-convergence applied no belief updates for a non-trivial delta")
	}
	if resp.Generation != r.Generation() {
		t.Fatalf("response generation %d, resident at %d", resp.Generation, r.Generation())
	}
	if !r.HasWarm() {
		t.Fatal("snapshot not re-published under the new generation")
	}

	oracle := coldOracle(t, r, map[int32]int{136: 1})
	cold := bp.RunResidual(func() *graph.Graph {
		g := r.base.Clone()
		g.ResetBeliefs()
		if err := g.Observe(136, 1); err != nil {
			t.Fatal(err)
		}
		return g
	}(), bp.Options{})
	warm, err := s.QueryResident(r, EngineResidual, decode(t, r, `{"evidence":[{"node":"136","state":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Warm {
		t.Fatal("query after non-structural update did not take the warm path")
	}
	if gap := worstGap(t, warm, oracle); gap > float64(WarmTol) {
		t.Errorf("warm post-update beliefs off by %g (want <= %g)", gap, float64(WarmTol))
	}
	if warm.Updates >= cold.Ops.NodesProcessed {
		t.Errorf("warm post-update query applied %d updates, cold %d — warm start bought nothing",
			warm.Updates, cold.Ops.NodesProcessed)
	}
}

// TestUpdateStructuralInvalidatesWarm: edge adds reshape the graph, so
// the snapshot is dropped rather than re-converged, the next query runs
// cold, and its answer reflects the new edge.
func TestUpdateStructuralInvalidatesWarm(t *testing.T) {
	s, r := newGridServer(t, Config{})
	if _, err := s.QueryResident(r, EngineResidual, decode(t, r, `{"evidence":[{"node":"17","state":1}]}`)); err != nil {
		t.Fatal(err)
	}
	edgesBefore := r.base.NumEdges

	ru, err := r.DecodeUpdate([]byte(`{"updates":[{"op":"edge","src":"3","dst":"250"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.UpdateResident(r, ru)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Structural {
		t.Fatal("edge add not reported structural")
	}
	if r.HasWarm() {
		t.Fatal("warm snapshot survived a structural delta")
	}
	if r.base.NumEdges != edgesBefore+1 {
		t.Fatalf("base has %d edges, want %d", r.base.NumEdges, edgesBefore+1)
	}

	second, err := s.QueryResident(r, EngineResidual, decode(t, r, `{"evidence":[{"node":"17","state":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if second.Warm {
		t.Fatal("query after structural update took the warm path")
	}
	oracle := coldOracle(t, r, map[int32]int{17: 1})
	if gap := worstGap(t, second, oracle); gap > float64(WarmTol) {
		t.Errorf("post-structural-update beliefs off by %g (want <= %g)", gap, float64(WarmTol))
	}
}

// TestUpdateRefreshesMetadata is the stale-statistics regression test:
// the cached Metadata (registry listing, engine-selector inputs) is
// computed at load, so before the refresh a structural delta left
// /v1/graphs reporting the pre-merge edge count forever.
func TestUpdateRefreshesMetadata(t *testing.T) {
	s, r := newGridServer(t, Config{})
	before := r.Metadata()

	ru, err := r.DecodeUpdate([]byte(`{"updates":[{"op":"edge","src":"3","dst":"250"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.UpdateResident(r, ru); err != nil {
		t.Fatal(err)
	}
	after := r.Metadata()
	if after.NumEdges != before.NumEdges+1 {
		t.Fatalf("metadata reports %d edges after the edge add, want %d", after.NumEdges, before.NumEdges+1)
	}

	// A numeric delta reshapes nothing; the statistics must not churn.
	ru, err = r.DecodeUpdate([]byte(`{"updates":[{"op":"prior","node":"17","prior":[0.9,0.1]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.UpdateResident(r, ru); err != nil {
		t.Fatal(err)
	}
	if got := r.Metadata().NumEdges; got != after.NumEdges {
		t.Fatalf("numeric delta moved the edge count: %d -> %d", after.NumEdges, got)
	}
}

// TestUpdateIgnoresStaleWarmSnapshot is the stale-adoption regression
// test. The race: a query leased at generation G converges slowly; a
// /v1/update meanwhile moves the base to G+1 and republishes a
// re-converged fixpoint; the late query then publishes its gen-G
// fixpoint. publish must refuse it, whether or not a fresher snapshot
// is stored, because the update's frontier is already drained: a later
// update re-converging from the stale fixpoint would publish beliefs
// that never saw the first update's changes.
func TestUpdateIgnoresStaleWarmSnapshot(t *testing.T) {
	s, r := newGridServer(t, Config{})
	if _, err := s.QueryResident(r, EngineResidual, decode(t, r, `{"evidence":[{"node":"17","state":1}]}`)); err != nil {
		t.Fatal(err)
	}
	// The slow query: an overlay leased now holds the gen-G fixpoint.
	stale, staleEvidence, warm, staleGen := r.lease(true)
	defer r.release(stale)
	if !warm {
		t.Fatal("first query did not arm the warm cache")
	}

	// The update clamps a node near the queried region and republishes a
	// re-converged snapshot at the new generation.
	ru, err := r.DecodeUpdate([]byte(`{"updates":[{"op":"evidence","node":"16","state":0}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.UpdateResident(r, ru)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Warm || !resp.Converged {
		t.Fatalf("update did not republish the snapshot (warm=%v converged=%v)", resp.Warm, resp.Converged)
	}
	r.mu.RLock()
	fresh, freshEpoch := append([]float32(nil), r.snap.beliefs...), r.snap.epoch
	r.mu.RUnlock()

	// The slow query publishes late, as a whole-array run would: the
	// fresher fixpoint must stay.
	stale.ran(nil)
	r.publish(stale, nil, nil, staleEvidence, staleGen)
	r.mu.RLock()
	kept := r.snap.epoch == freshEpoch && sameBits(r.snap.beliefs, fresh)
	r.mu.RUnlock()
	if !kept {
		t.Fatal("late stale publication clobbered the re-converged snapshot")
	}

	// With no snapshot stored, the late publication must not fill the
	// gap either; the next update then has nothing to carry forward.
	r.InvalidateWarm()
	r.publish(stale, nil, nil, staleEvidence, staleGen)
	if r.HasWarm() {
		t.Fatal("stale publication stored into an empty snapshot slot")
	}
	ru, err = r.DecodeUpdate([]byte(`{"updates":[{"op":"prior","node":"200","prior":[0.9,0.1]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = s.UpdateResident(r, ru)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Warm {
		t.Fatal("update re-converged a snapshot from a stale generation")
	}

	// The next query runs cold against the fully-mutated base; its
	// posteriors must reflect the first update's clamp (the information a
	// stale-seeded re-convergence would have dropped).
	q, err := s.QueryResident(r, EngineResidual, decode(t, r, `{"evidence":[{"node":"17","state":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if q.Warm {
		t.Fatal("post-update query warm-started from a stale fixpoint")
	}
	oracle := coldOracle(t, r, map[int32]int{17: 1})
	if gap := worstGap(t, q, oracle); gap > float64(WarmTol) {
		t.Errorf("post-update beliefs off by %g (want <= %g) — stale fixpoint leaked into the answer", gap, float64(WarmTol))
	}
}

// TestUpdateWithoutSeedsKeepsWarm: a prior drift on an update-clamped
// node is parked for retraction, so it bumps the generation but moves no
// node and seeds nothing. The snapshot is still the base's fixpoint; the
// update must report it warm and the next same-evidence query must reuse
// it for free.
func TestUpdateWithoutSeedsKeepsWarm(t *testing.T) {
	s, r := newGridServer(t, Config{})
	q := `{"evidence":[{"node":"17","state":1}]}`
	if _, err := s.QueryResident(r, EngineResidual, decode(t, r, q)); err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{
		`{"updates":[{"op":"evidence","node":"16","state":0}]}`,
		`{"updates":[{"op":"prior","node":"16","prior":[0.3,0.7]}]}`,
	} {
		ru, err := r.DecodeUpdate([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := s.UpdateResident(r, ru)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Warm || !resp.Converged {
			t.Fatalf("%s: warm=%v converged=%v, want a warm converged snapshot", doc, resp.Warm, resp.Converged)
		}
	}
	resp, err := s.QueryResident(r, EngineResidual, decode(t, r, q))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Warm || resp.Updates != 0 {
		t.Fatalf("same-evidence query after a seedless update: warm=%v updates=%d, want warm with 0", resp.Warm, resp.Updates)
	}
	oracle := coldOracle(t, r, map[int32]int{17: 1})
	if gap := worstGap(t, resp, oracle); gap > float64(WarmTol) {
		t.Errorf("beliefs off by %g (want <= %g)", gap, float64(WarmTol))
	}
}

// probeFunc adapts a function to telemetry.Probe.
type probeFunc func(telemetry.Event)

func (f probeFunc) Emit(e telemetry.Event) { f(e) }

// TestQueryOverlappingUpdateAnswersWarm: a query that arrives while an
// update re-converges the snapshot must wait for the re-converged
// fixpoint and answer warm, not find the base mutated and the snapshot
// gone and pay a cold run. The probe starts the query from inside the
// update's run and holds the run for 50 ms so the two overlap.
func TestQueryOverlappingUpdateAnswersWarm(t *testing.T) {
	var armed atomic.Bool
	var s *Server
	var r *Resident
	type result struct {
		resp *Response
		err  error
	}
	done := make(chan result, 1)
	var rq *ResolvedQuery
	probe := probeFunc(func(e telemetry.Event) {
		if e.Kind != telemetry.KindRunStart || !armed.CompareAndSwap(true, false) {
			return
		}
		go func() {
			resp, err := s.QueryResident(r, EngineResidual, rq)
			done <- result{resp, err}
		}()
		time.Sleep(50 * time.Millisecond)
	})
	s, r = newGridServer(t, Config{Options: bp.Options{Probe: probe}})
	rq = decode(t, r, `{"evidence":[{"node":"136","state":1}]}`)
	if _, err := s.QueryResident(r, EngineResidual, rq); err != nil {
		t.Fatal(err)
	}

	armed.Store(true)
	ru, err := r.DecodeUpdate([]byte(`{"updates":[{"op":"prior","node":"40","prior":[0.9,0.1]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	up, err := s.UpdateResident(r, ru)
	if err != nil {
		t.Fatal(err)
	}
	if !up.Warm || armed.Load() {
		t.Fatalf("update warm=%v, probe fired=%v: the overlap was not set up", up.Warm, !armed.Load())
	}
	got := <-done
	if got.err != nil {
		t.Fatal(got.err)
	}
	if !got.resp.Warm {
		t.Fatalf("query overlapping the update's re-convergence ran cold (%d updates)", got.resp.Updates)
	}
	oracle := coldOracle(t, r, map[int32]int{136: 1})
	if gap := worstGap(t, got.resp, oracle); gap > float64(WarmTol) {
		t.Errorf("overlapping query off by %g (want <= %g)", gap, float64(WarmTol))
	}
}

// TestUpdateRejectedMidBatchReportsApplied: a rejection mid-batch keeps
// the applied prefix committed, and the structured response comes back
// alongside the error so a client can resync from Applied and
// Generation instead of parsing the position out of the error string.
func TestUpdateRejectedMidBatchReportsApplied(t *testing.T) {
	s, r := newGridServer(t, Config{})
	genBefore := r.Generation()
	ru, err := r.DecodeUpdate([]byte(`{"updates":[
		{"op":"prior","node":"40","prior":[0.9,0.1]},
		{"op":"retract","node":"41"},
		{"op":"prior","node":"42","prior":[0.2,0.8]}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.UpdateResident(r, ru)
	if err == nil {
		t.Fatal("retract of an unclamped node applied without error")
	}
	if resp == nil {
		t.Fatal("rejected update returned no structured response")
	}
	if resp.Applied != 1 {
		t.Errorf("applied = %d, want 1 (the prefix before the rejected op)", resp.Applied)
	}
	if resp.Generation != r.Generation() {
		t.Errorf("response generation %d, resident at %d", resp.Generation, r.Generation())
	}
	if resp.Generation == genBefore {
		t.Error("committed prefix did not advance the generation")
	}
}

// TestUpdateDecodeRejects locks the decoder's strictness contract.
func TestUpdateDecodeRejects(t *testing.T) {
	_, r := newGridServer(t, Config{})
	for name, doc := range map[string]string{
		"empty":         `{"updates":[]}`,
		"unknown-op":    `{"updates":[{"op":"rename","node":"3"}]}`,
		"unknown-field": `{"updates":[{"op":"prior","node":"3","prior":[0.5,0.5]}],"extra":1}`,
		"no-state":      `{"updates":[{"op":"evidence","node":"3"}]}`,
		"bad-state":     `{"updates":[{"op":"evidence","node":"3","state":7}]}`,
		"bad-node":      `{"updates":[{"op":"retract","node":"nope"}]}`,
		"short-prior":   `{"updates":[{"op":"prior","node":"3","prior":[1.0]}]}`,
		"short-matrix":  `{"updates":[{"op":"edge","src":"3","dst":"9","mat":[0.5]}]}`,
		"trailing":      `{"updates":[{"op":"retract","node":"3"}]}{}`,
	} {
		if _, err := r.DecodeUpdate([]byte(doc)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// Apply-time rejection: retracting a clamp the update path never
	// placed surfaces the delta layer's error and reports the position.
	ru, err := r.DecodeUpdate([]byte(`{"updates":[{"op":"retract","node":"3"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	if _, err := s.UpdateResident(r, ru); err == nil {
		t.Error("retract of an unclamped node applied without error")
	}
}

// TestUpdatePatchMatchesWholeRun: after each numeric update the patched
// snapshot equals, bit for bit, a re-convergence on a whole-state copy —
// the mutated base, the snapshot's still-valid query clamps, the old
// fixpoint on every other unclamped node with inputs, and the delta
// frontier as seeds. The snapshot before each update comes from a warm
// patch, a cold run or a batched lane, and the queries restate nodes the
// base clamps. Damping makes some runs apply more than NumNodes updates,
// past which bp.RunResidualFrom stops listing the rows it moved, so the
// untracked case is covered too.
func TestUpdatePatchMatchesWholeRun(t *testing.T) {
	s, r := newGridServer(t, Config{Options: bp.Options{Damping: 0.5}})
	n := r.base.NumNodes
	rng := rand.New(rand.NewSource(11))
	var clamped []int
	untracked := 0
	for step := 0; step < 60; step++ {
		restate := rng.Intn(n)
		if len(clamped) > 0 && rng.Intn(2) == 0 {
			restate = clamped[rng.Intn(len(clamped))]
		}
		rq := decode(t, r, fmt.Sprintf(`{"evidence":[{"node":"%d","state":%d},{"node":"%d","state":1}]}`,
			restate, rng.Intn(2), rng.Intn(n)))
		var err error
		switch step % 4 {
		case 0, 1:
			_, err = s.QueryResident(r, EngineResidual, rq)
		case 2:
			_, err = s.QueryResident(r, EngineNode, rq)
		default:
			_, err = s.QueryBatched(r, []*ResolvedQuery{rq})
		}
		if err != nil {
			t.Fatal(err)
		}
		v := int32(rng.Intn(n))
		m := gen.Mutation{Kind: gen.MutEvidence, Node: v, State: rng.Intn(2)}
		if rng.Intn(2) == 0 {
			clamped = append(clamped, int(v))
		} else {
			p := rng.Float32()
			m = gen.Mutation{Kind: gen.MutPrior, Node: v, Prior: []float32{p, 1 - p}}
		}

		r.mu.RLock()
		ref := r.base.Clone()
		old, evidence := slices.Clone(r.snap.beliefs), r.snap.evidence
		r.mu.RUnlock()
		if err := m.Apply(ref); err != nil {
			t.Fatal(err)
		}
		seeds := ref.TakeDeltaSeeds()
		for _, ev := range evidence {
			if !ref.Observed[ev.node] {
				if err := ref.Observe(ev.node, int(ev.state)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for u := int32(0); u < int32(n); u++ {
			if !ref.Observed[u] && ref.InDegree(u) > 0 {
				copy(ref.Belief(u), old[int(u)*ref.States:(int(u)+1)*ref.States])
			}
		}
		want := bp.RunResidualFrom(ref, s.cfg.Options, seeds)

		resp, err := s.UpdateResident(r, &ResolvedUpdate{muts: []gen.Mutation{m}})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Warm || !want.Converged {
			t.Fatalf("step %d: update warm=%v, whole run converged=%v", step, resp.Warm, want.Converged)
		}
		if want.Moved == nil {
			untracked++
		}
		r.mu.RLock()
		same := sameBits(r.snap.beliefs, ref.Beliefs)
		r.mu.RUnlock()
		if !same {
			t.Fatalf("step %d: snapshot after a %d-update re-convergence differs from the whole run's", step, resp.Updates)
		}
	}
	if untracked == 0 {
		t.Fatal("no re-convergence passed NumNodes updates; the untracked case went untested")
	}
	t.Logf("%d of 60 re-convergences passed NumNodes updates", untracked)
}
