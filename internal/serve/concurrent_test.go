package serve

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"credo/internal/bp"
	"credo/internal/enginetest"
	"credo/internal/gen"
	"credo/internal/graph"
)

// TestConcurrentQueriesMatchOracle is the serving-layer differential
// test: many goroutines fire mixed-evidence queries at one resident —
// warm and cold starts interleaving, snapshots racing to publish — and
// every response must land within the cross-engine tolerance of a fresh
// single-threaded oracle run of the same evidence. Run under -race in CI.
func TestConcurrentQueriesMatchOracle(t *testing.T) {
	s, r := newGridServer(t, Config{Workers: 2, MaxInFlight: 8})

	// The evidence mix: disjoint clamps so consecutive queries genuinely
	// perturb each other's snapshots, plus the evidence-free query so
	// retraction races too.
	docs := []string{
		`{}`,
		`{"evidence":[{"node":"136","state":1}]}`,
		`{"evidence":[{"node":"40","state":0}]}`,
		`{"evidence":[{"node":"136","state":1},{"node":"40","state":0}]}`,
		`{"evidence":[{"node":"200","state":1}]}`,
	}

	// Oracle posteriors per evidence set, computed single-threaded on a
	// fresh clone with the reference sweep engine.
	oracles := make([]*graph.Graph, len(docs))
	for i, doc := range docs {
		rq := decode(t, r, doc)
		g := r.base.Clone()
		for _, ev := range rq.evidence {
			if err := g.Observe(ev.node, int(ev.state)); err != nil {
				t.Fatal(err)
			}
		}
		if res := enginetest.Oracle(g); !res.Converged {
			t.Fatalf("oracle did not converge on %s (delta %g)", doc, res.FinalDelta)
		}
		oracles[i] = g
	}

	const (
		workers = 8
		rounds  = 6
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				pick := (w + round) % len(docs)
				rq, err := r.DecodeQuery([]byte(docs[pick]))
				if err != nil {
					errs <- err
					return
				}
				resp, err := s.QueryResident(r, EngineAuto, rq)
				if err != nil {
					errs <- err
					return
				}
				if !resp.Converged {
					errs <- fmt.Errorf("worker %d round %d: not converged (delta %g)", w, round, resp.FinalDelta)
					return
				}
				if err := compareToOracle(resp, oracles[pick]); err != nil {
					errs <- fmt.Errorf("worker %d round %d evidence %s: %w", w, round, docs[pick], err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// compareToOracle checks every reported posterior against the oracle
// graph's converged beliefs at the enginetest cross-engine tolerance
// (per-node L1, the same bound the batch engines are held to).
func compareToOracle(resp *Response, oracle *graph.Graph) error {
	for v := int32(0); v < int32(oracle.NumNodes); v++ {
		got, ok := resp.Beliefs.Of(v)
		if !ok {
			return fmt.Errorf("node %d missing from response", v)
		}
		want := oracle.Belief(v)
		if len(got) != len(want) {
			return fmt.Errorf("node %d has %d states, oracle %d", v, len(got), len(want))
		}
		l1 := 0.0
		for i := range want {
			l1 += math.Abs(float64(got[i]) - float64(want[i]))
		}
		if l1 > float64(enginetest.DefaultTol) {
			return fmt.Errorf("node %d L1 distance %g exceeds %g (got %v, oracle %v)",
				v, l1, float64(enginetest.DefaultTol), got, want)
		}
	}
	return nil
}

// TestConcurrentLeasesAreIsolated: overlays leased to concurrent queries
// never alias, and the resident base never sees a clamp.
func TestConcurrentLeasesAreIsolated(t *testing.T) {
	_, r := newGridServer(t, Config{})
	a, _, _, _ := r.lease(false)
	b, _, _, _ := r.lease(false)
	if a == b || a.g == b.g {
		t.Fatal("two live leases alias the same overlay")
	}
	if a.g == r.base || b.g == r.base {
		t.Fatal("lease handed out the resident base")
	}
	if err := a.g.Observe(0, 1); err != nil {
		t.Fatal(err)
	}
	if r.base.Observed[0] || b.g.Observed[0] {
		t.Fatal("clamping one lease leaked into the base or a sibling lease")
	}
	r.release(a)
	c, _, _, _ := r.lease(false) // may reuse a's arrays — must come back pristine
	if c.g.Observed[0] {
		t.Fatal("recycled lease kept the previous query's evidence")
	}
	r.release(b)
	r.release(c)
}

// TestConcurrentUpdatesQueriesAndBatches drives every entry point that
// takes the resident's lock at once — solo queries, batched flushes,
// registry reads and a stream of numeric updates — and then checks the
// one invariant they share: the snapshot left behind is a fixpoint of
// the final base, so a same-evidence query served from it matches a
// cold run of that base. Run under -race in CI.
func TestConcurrentUpdatesQueriesAndBatches(t *testing.T) {
	s, r := newGridServer(t, Config{Workers: 2, MaxInFlight: 8})
	docs := []string{
		`{"evidence":[{"node":"136","state":1}]}`,
		`{"evidence":[{"node":"40","state":0}]}`,
		`{}`,
	}
	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, 4*rounds)
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			p := 0.1 + 0.1*float64(i)
			ru, err := r.DecodeUpdate([]byte(fmt.Sprintf(`{"updates":[{"op":"prior","node":"%d","prior":[%g,%g]}]}`, 30+i*20, p, 1-p)))
			if err == nil {
				_, err = s.UpdateResident(r, ru)
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	for w := 0; w < 2; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				rq, err := r.DecodeQuery([]byte(docs[(w+i)%len(docs)]))
				if err != nil {
					errs <- err
					return
				}
				var resp *Response
				if w == 0 {
					resp, err = s.QueryResident(r, EngineAuto, rq)
				} else {
					var out []*Response
					if out, err = s.QueryBatched(r, []*ResolvedQuery{rq}); err == nil {
						resp = out[0]
					}
				}
				if err != nil {
					errs <- err
					return
				}
				if !resp.Converged {
					errs <- fmt.Errorf("worker %d round %d: not converged (delta %g)", w, i, resp.FinalDelta)
					return
				}
			}
		}(w)
	}
	go func() {
		defer wg.Done()
		var last uint64
		for i := 0; i < rounds; i++ {
			info := s.info(r)
			if info.Generation < last {
				errs <- fmt.Errorf("registry generation went back from %d to %d", last, info.Generation)
				return
			}
			last = info.Generation
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	for i, doc := range docs {
		resp, err := s.QueryResident(r, EngineResidual, decode(t, r, doc))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && !resp.Warm {
			t.Errorf("%s: a converged query left no snapshot behind", doc)
		}
		ev := map[int32]int{}
		for _, p := range decode(t, r, doc).evidence {
			ev[p.node] = int(p.state)
		}
		if gap := worstGap(t, resp, coldOracle(t, r, ev)); gap > float64(WarmTol) {
			t.Errorf("%s: final answer off by %g from the final base's oracle (want <= %g)", doc, gap, float64(WarmTol))
		}
	}
}

// TestConcurrentLeaseMatchesFullCopy: however an overlay was last used,
// a lease hands it back holding exactly what a whole-state copy would —
// the base's priors and clamps, and the snapshot's beliefs (the base's
// when cold) — while goroutines interleave warm and cold queries on
// every engine, numeric and structural updates, invalidations and
// batched flushes. The graph is large enough (1,500 nodes) that most
// re-bases are incremental, so a row missing from the journal or from
// an overlay's dirty list shows up as a mismatch; on a few hundred
// nodes the quarter-graph fallback would copy everything and hide it.
func TestConcurrentLeaseMatchesFullCopy(t *testing.T) {
	g, err := gen.PowerLaw(1500, 6000, gen.Config{Seed: 3, States: 2, Shared: true})
	if err != nil {
		t.Fatal(err)
	}
	if g, err = g.Undirected(); err != nil {
		t.Fatal(err)
	}
	lt := &leaseTest{
		s: New(Config{Workers: 2}),
		// Runs on this server hit the iteration cap and publish nothing,
		// so their overlays go back to the pool with rows that only the
		// overlay's own dirty list records.
		capped: New(Config{Workers: 2, Options: bp.Options{Threshold: 1e-30, MaxIterations: 1}}),
	}
	if lt.r, err = lt.s.Load("lease", g); err != nil {
		t.Fatal(err)
	}
	// Queries clamp 20 low ids and 10 input-free nodes, which no run
	// moves, so a retracted clamp's row is written only by the query.
	for v := int32(0); len(lt.hot) < 30; v++ {
		if v < 20 || g.InDegree(v) == 0 {
			lt.hot = append(lt.hot, v)
		}
	}
	const workers, steps = 2, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			var clamped []int32 // this worker's update clamps, each once
			for step := 0; step < steps; step++ {
				if err := lt.step(rng, w, &clamped); err != nil {
					errs <- fmt.Errorf("worker %d step %d: %w", w, step, err)
					return
				}
				if err := lt.check(rng); err != nil {
					errs <- fmt.Errorf("worker %d after step %d: %w", w, step, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// leaseTest is the state TestConcurrentLeaseMatchesFullCopy's workers
// share. Every step holds excl, an export check for writing, so no
// other step can move the snapshot between its answer and the
// comparison.
type leaseTest struct {
	s, capped *Server
	r         *Resident
	hot       []int32
	excl      sync.RWMutex
}

// step runs one random step of worker w.
func (lt *leaseTest) step(rng *rand.Rand, w int, clamped *[]int32) error {
	s, r, n := lt.s, lt.r, lt.r.base.NumNodes
	query := func() *ResolvedQuery {
		rq := &ResolvedQuery{}
		for _, i := range rng.Perm(len(lt.hot))[:1+rng.Intn(6)] {
			rq.evidence = append(rq.evidence, evPair{node: lt.hot[i], state: int32(rng.Intn(2))})
		}
		slices.SortFunc(rq.evidence, func(a, b evPair) int { return cmp.Compare(a.node, b.node) })
		if rng.Intn(2) == 0 {
			for _, v := range rng.Perm(n)[:16] {
				rq.nodes = append(rq.nodes, int32(v))
			}
			slices.Sort(rq.nodes)
		}
		return rq
	}
	k := rng.Intn(20)
	if k == 9 { // an export check
		lt.excl.Lock()
		defer lt.excl.Unlock()
	} else {
		lt.excl.RLock()
		defer lt.excl.RUnlock()
	}
	switch {
	case k < 5:
		_, err := s.QueryResident(r, []string{EngineAuto, EngineResidual}[rng.Intn(2)], query())
		return err
	case k < 6:
		_, err := s.QueryResident(r, []string{EngineNode, EngineEdge}[rng.Intn(2)], query())
		return err
	case k < 9:
		engines := []string{EngineAuto, EngineResidual, EngineRelax, EngineNode, EngineEdge, EnginePool}
		_, err := lt.capped.QueryResident(r, engines[rng.Intn(len(engines))], query())
		return err
	case k < 10:
		rq := query()
		rq.nodes = nil
		resp, err := s.QueryResident(r, EngineResidual, rq)
		if err != nil || !resp.Converged {
			return err
		}
		r.mu.RLock()
		defer r.mu.RUnlock()
		if !r.snap.ok || !sameBits(r.snap.beliefs, resp.Beliefs.values) {
			return fmt.Errorf("snapshot differs from the converged export it published (warm=%v)", resp.Warm)
		}
		return nil
	case k < 11:
		_, err := s.QueryBatched(r, []*ResolvedQuery{query()})
		return err
	case k < 12:
		r.InvalidateWarm()
		return nil
	}
	var m gen.Mutation
	switch k := rng.Intn(10); {
	case k < 3:
		// A worker clamps only ids of its own parity, so it never
		// retracts the other's clamp. About a quarter of the clamps land
		// on the nodes queries clamp, so queries restate and retract
		// nodes the base clamps.
		v := int32(rng.Intn(n/2)*2 + w)
		if h := lt.hot[rng.Intn(len(lt.hot))]; rng.Intn(2) == 0 && int(h)%2 == w {
			v = h
		}
		m = gen.Mutation{Kind: gen.MutEvidence, Node: v, State: rng.Intn(2)}
		if !slices.Contains(*clamped, v) {
			*clamped = append(*clamped, v)
		}
	case k < 5 && len(*clamped) > 0:
		i := rng.Intn(len(*clamped))
		m = gen.Mutation{Kind: gen.MutRetract, Node: (*clamped)[i]}
		*clamped = slices.Delete(*clamped, i, i+1)
	case k < 9:
		p := rng.Float32()
		m = gen.Mutation{Kind: gen.MutPrior, Node: int32(rng.Intn(n)), Prior: []float32{p, 1 - p}}
	default:
		src, dst := int32(rng.Intn(n)), int32(rng.Intn(n))
		if src == dst {
			return nil
		}
		m = gen.Mutation{Kind: gen.MutAddEdge, Src: src, Dst: dst}
	}
	_, err := s.UpdateResident(r, &ResolvedUpdate{muts: []gen.Mutation{m}})
	return err
}

// check holds several leases at once under one read lock and compares
// each, bit for bit, with a whole-state copy.
func (lt *leaseTest) check(rng *rand.Rand) error {
	lt.excl.RLock()
	defer lt.excl.RUnlock()
	r := lt.r
	r.mu.RLock()
	defer r.mu.RUnlock()
	var held []*overlay
	defer func() {
		for _, o := range held {
			r.release(o)
		}
	}()
	for i := 0; i < 3; i++ {
		warm := r.snap.ok && rng.Intn(4) != 0
		o := r.leaseLocked(warm)
		held = append(held, o)
		want := r.base.Beliefs
		if warm {
			want = r.snap.beliefs
		}
		switch {
		case !sameBits(o.g.Priors, r.base.Priors):
			return fmt.Errorf("lease %d (warm=%v): priors differ from the base's", i, warm)
		case !slices.Equal(o.g.Observed, r.base.Observed):
			return fmt.Errorf("lease %d (warm=%v): clamps differ from the base's", i, warm)
		case !sameBits(o.g.Beliefs, want):
			return fmt.Errorf("lease %d (warm=%v): beliefs differ from a whole copy", i, warm)
		}
	}
	return nil
}
