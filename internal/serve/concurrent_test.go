package serve

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"credo/internal/enginetest"
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
	a, _, _ := r.lease()
	b, _, _ := r.lease()
	if a == b {
		t.Fatal("two live leases alias the same overlay")
	}
	if a == r.base || b == r.base {
		t.Fatal("lease handed out the resident base")
	}
	if err := a.Observe(0, 1); err != nil {
		t.Fatal(err)
	}
	if r.base.Observed[0] || b.Observed[0] {
		t.Fatal("clamping one lease leaked into the base or a sibling lease")
	}
	r.release(a)
	c, _, _ := r.lease() // may reuse a's arrays — must come back pristine
	if c.Observed[0] {
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
