package serve

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"credo/internal/gen"
	"credo/internal/graph"
)

// testGrid builds the warm-start regression graph: a 16x16 lattice MRF,
// large enough that localized evidence perturbs only a region (the same
// graph the bp/relaxbp seeded-entry tests lock).
func testGrid(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.Grid(16, 16, gen.Config{Seed: 5, States: 2, Shared: true, Keep: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newGridServer(t *testing.T, cfg Config) (*Server, *Resident) {
	t.Helper()
	s := New(cfg)
	r, err := s.Load("grid", testGrid(t))
	if err != nil {
		t.Fatal(err)
	}
	return s, r
}

// decode resolves a query document against the resident or fails the test.
func decode(t *testing.T, r *Resident, doc string) *ResolvedQuery {
	t.Helper()
	rq, err := r.DecodeQuery([]byte(doc))
	if err != nil {
		t.Fatalf("DecodeQuery(%s): %v", doc, err)
	}
	return rq
}

// maxBeliefGap returns the largest per-entry belief distance between two
// responses covering the same node set.
func maxBeliefGap(t *testing.T, a, b *Response) float64 {
	t.Helper()
	if a.Beliefs.Len() != b.Beliefs.Len() {
		t.Fatalf("belief tables cover %d vs %d nodes", a.Beliefs.Len(), b.Beliefs.Len())
	}
	worst := 0.0
	for k := 0; k < a.Beliefs.Len(); k++ {
		v, av := a.Beliefs.Node(k), a.Beliefs.Row(k)
		bv, ok := b.Beliefs.Of(v)
		if !ok || len(av) != len(bv) {
			t.Fatalf("node %d missing or mis-shaped in second response", v)
		}
		for i := range av {
			if d := math.Abs(float64(av[i]) - float64(bv[i])); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// sprinklerPath resolves the shared BIF fixture relative to this source
// file, mirroring the enginetest corpus loader.
func sprinklerPath() string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Join(filepath.Dir(file), "..", "bif", "testdata", "sprinkler.bif")
}

// TestWarmMatchesColdWithFewerUpdates is the serving-layer acceptance
// lock: a warm-started query must land within WarmTol of a cold start of
// the same evidence while applying measurably fewer belief updates.
func TestWarmMatchesColdWithFewerUpdates(t *testing.T) {
	for _, engine := range []string{EngineResidual, EngineRelax} {
		t.Run(engine, func(t *testing.T) {
			warmSrv, warmRes := newGridServer(t, Config{Workers: 2})
			q1 := decode(t, warmRes, `{"evidence":[{"node":"136","state":1}]}`)
			first, err := warmSrv.QueryResident(warmRes, engine, q1)
			if err != nil {
				t.Fatal(err)
			}
			if first.Warm {
				t.Fatal("first query claims a warm start on an empty cache")
			}
			if !first.Converged {
				t.Fatalf("first query did not converge (delta %g)", first.FinalDelta)
			}
			if !warmRes.HasWarm() {
				t.Fatal("converged query did not publish a warm snapshot")
			}

			q2 := decode(t, warmRes, `{"evidence":[{"node":"136","state":1},{"node":"40","state":0}]}`)
			warm, err := warmSrv.QueryResident(warmRes, engine, q2)
			if err != nil {
				t.Fatal(err)
			}
			if !warm.Warm {
				t.Fatal("second query did not take the warm path")
			}
			if !warm.Converged {
				t.Fatalf("warm query did not converge (delta %g)", warm.FinalDelta)
			}

			coldSrv, coldRes := newGridServer(t, Config{Workers: 2})
			cold, err := coldSrv.QueryResident(coldRes,
				engine, decode(t, coldRes, `{"evidence":[{"node":"136","state":1},{"node":"40","state":0}]}`))
			if err != nil {
				t.Fatal(err)
			}
			if cold.Warm || !cold.Converged {
				t.Fatalf("cold control: warm=%v converged=%v", cold.Warm, cold.Converged)
			}

			if gap := maxBeliefGap(t, warm, cold); gap > float64(WarmTol) {
				t.Errorf("warm beliefs diverge from cold by %g, tolerance %g", gap, float64(WarmTol))
			}
			if warm.Updates >= cold.Updates {
				t.Errorf("warm start applied %d updates, cold %d — warm must be measurably cheaper",
					warm.Updates, cold.Updates)
			}
		})
	}
}

// TestWarmIdenticalEvidenceIsFree locks the degenerate warm start: asking
// the converged question again touches nothing and returns the snapshot.
func TestWarmIdenticalEvidenceIsFree(t *testing.T) {
	s, r := newGridServer(t, Config{})
	doc := `{"evidence":[{"node":"136","state":1}]}`
	if _, err := s.QueryResident(r, EngineResidual, decode(t, r, doc)); err != nil {
		t.Fatal(err)
	}
	again, err := s.QueryResident(r, EngineResidual, decode(t, r, doc))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Warm || !again.Converged {
		t.Fatalf("repeat query: warm=%v converged=%v", again.Warm, again.Converged)
	}
	if again.Updates != 0 || again.Edges != 0 {
		t.Errorf("identical-evidence warm start applied %d updates over %d edges, want 0 and 0",
			again.Updates, again.Edges)
	}
}

// TestWarmEvidenceRetraction checks the un-clamp path: retracting
// evidence warm-starts back to (within tolerance of) the evidence-free
// posterior, because CopyStateFrom restores the base priors before the
// snapshot diff seeds the retracted node.
func TestWarmEvidenceRetraction(t *testing.T) {
	s, r := newGridServer(t, Config{})
	if _, err := s.QueryResident(r, EngineResidual,
		decode(t, r, `{"evidence":[{"node":"136","state":1}]}`)); err != nil {
		t.Fatal(err)
	}
	warm, err := s.QueryResident(r, EngineResidual, decode(t, r, `{}`))
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Warm || !warm.Converged {
		t.Fatalf("retraction query: warm=%v converged=%v", warm.Warm, warm.Converged)
	}

	coldSrv, coldRes := newGridServer(t, Config{})
	cold, err := coldSrv.QueryResident(coldRes, EngineResidual, decode(t, coldRes, `{}`))
	if err != nil {
		t.Fatal(err)
	}
	if gap := maxBeliefGap(t, warm, cold); gap > float64(WarmTol) {
		t.Errorf("retraction beliefs diverge from cold by %g, tolerance %g", gap, float64(WarmTol))
	}
}

// TestInvalidateWarmFallsBackCold locks the operator hook: dropping the
// snapshot sends the next query down the cold path.
func TestInvalidateWarmFallsBackCold(t *testing.T) {
	s, r := newGridServer(t, Config{})
	if _, err := s.QueryResident(r, EngineResidual,
		decode(t, r, `{"evidence":[{"node":"136","state":1}]}`)); err != nil {
		t.Fatal(err)
	}
	r.InvalidateWarm()
	if r.HasWarm() {
		t.Fatal("InvalidateWarm left a snapshot behind")
	}
	resp, err := s.QueryResident(r, EngineResidual, decode(t, r, `{}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Warm {
		t.Fatal("query after invalidation claims a warm start")
	}
}

// TestNonSeedableEngineStaysCold: explicit node/edge/pool overrides have
// no seeded entry point, so they must run cold even with a snapshot
// available — and their converged result must refresh the snapshot.
func TestNonSeedableEngineStaysCold(t *testing.T) {
	s, r := newGridServer(t, Config{Workers: 2})
	if _, err := s.QueryResident(r, EngineResidual,
		decode(t, r, `{"evidence":[{"node":"136","state":1}]}`)); err != nil {
		t.Fatal(err)
	}
	resp, err := s.QueryResident(r, EngineNode, decode(t, r, `{}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Warm {
		t.Fatal("node-engine query claims a warm start")
	}
	if !resp.Converged {
		t.Fatalf("node-engine query did not converge (delta %g)", resp.FinalDelta)
	}
}

// TestColdEdgeAfterReusedOverlay: the lease re-bases node state only, so
// a recycled overlay carries the messages of its last run. One overlay
// serves a warm residual query and then two cold edge-paradigm queries
// (the edge engine starts from the messages); each edge answer must
// equal, bitwise, the same query on a fresh server.
func TestColdEdgeAfterReusedOverlay(t *testing.T) {
	s, r := newGridServer(t, Config{})
	reused := &overlay{g: r.base.Clone()}
	r.pool.New = func() any { return reused } // every lease gets this overlay
	steps := []struct{ engine, doc string }{
		{EngineResidual, `{"evidence":[{"node":"136","state":1}]}`},
		{EngineResidual, `{"evidence":[{"node":"40","state":0}]}`},
		{EngineEdge, `{"evidence":[{"node":"136","state":1}]}`},
		{EngineEdge, `{"evidence":[{"node":"200","state":0}]}`},
	}
	for i, st := range steps {
		got, err := s.QueryResident(r, st.engine, decode(t, r, st.doc))
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 && !got.Warm {
			t.Fatal("second residual query ran cold; the warm path is not exercised")
		}
		if st.engine != EngineEdge {
			continue
		}
		fs, fr := newGridServer(t, Config{})
		want, err := fs.QueryResident(fr, st.engine, decode(t, fr, st.doc))
		if err != nil {
			t.Fatal(err)
		}
		if got.Iterations != want.Iterations || got.Updates != want.Updates ||
			got.Edges != want.Edges || got.FinalDelta != want.FinalDelta {
			t.Errorf("step %d: reused overlay ran %d iterations/%d updates/%d edges/delta %g, fresh server %d/%d/%d/%g",
				i, got.Iterations, got.Updates, got.Edges, got.FinalDelta,
				want.Iterations, want.Updates, want.Edges, want.FinalDelta)
		}
		for k := 0; k < want.Beliefs.Len(); k++ {
			v, wb := want.Beliefs.Node(k), want.Beliefs.Row(k)
			gb, _ := got.Beliefs.Of(v)
			for j := range wb {
				if math.Float32bits(gb[j]) != math.Float32bits(wb[j]) {
					t.Fatalf("step %d: node %d belief %v on the reused overlay, %v on a fresh server", i, v, gb, wb)
				}
			}
		}
	}
}

// TestQueryBeliefsSubsetAndNormalization: requested node subsets come
// back exactly, and every reported posterior is a distribution.
func TestQueryBeliefsSubsetAndNormalization(t *testing.T) {
	s, r := newGridServer(t, Config{})
	resp, err := s.QueryResident(r, EngineAuto,
		decode(t, r, `{"evidence":[{"node":"0","state":1}],"nodes":["1","17","255"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Beliefs.Len() != 3 {
		t.Fatalf("asked for 3 nodes, got %d", resp.Beliefs.Len())
	}
	for _, name := range []string{"1", "17", "255"} {
		v, err := r.resolveNode(name)
		if err != nil {
			t.Fatal(err)
		}
		b, ok := resp.Beliefs.Of(v)
		if !ok {
			t.Fatalf("node %q missing from response", name)
		}
		sum := 0.0
		for _, p := range b {
			if p < 0 || p > 1 {
				t.Fatalf("node %q belief %v outside [0,1]", name, b)
			}
			sum += float64(p)
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Fatalf("node %q beliefs sum to %g", name, sum)
		}
	}
}

// TestDecodeQueryErrors locks the strict decoder: every malformed shape
// the fuzz target explores must error (never panic) deterministically.
func TestDecodeQueryErrors(t *testing.T) {
	_, r := newGridServer(t, Config{})
	cases := []struct{ name, doc string }{
		{"malformed json", `{"evidence":`},
		{"trailing data", `{} {}`},
		{"unknown field", `{"evidenze":[]}`},
		{"unknown node", `{"evidence":[{"node":"bogus","state":0}]}`},
		{"node id out of range", `{"evidence":[{"node":"999","state":0}]}`},
		{"negative node id", `{"evidence":[{"node":"-1","state":0}]}`},
		{"empty node", `{"evidence":[{"node":"","state":0}]}`},
		{"missing state", `{"evidence":[{"node":"0"}]}`},
		{"state out of range", `{"evidence":[{"node":"0","state":2}]}`},
		{"negative state", `{"evidence":[{"node":"0","state":-1}]}`},
		{"duplicate evidence", `{"evidence":[{"node":"0","state":0},{"node":"0","state":1}]}`},
		{"unknown response node", `{"nodes":["nope"]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := r.DecodeQuery([]byte(tc.doc)); err == nil {
				t.Fatalf("DecodeQuery(%s) accepted a malformed document", tc.doc)
			}
		})
	}
	if _, err := r.DecodeQuery([]byte(fmt.Sprintf(`{"nodes":[%q]}`, "0"))); err != nil {
		t.Fatalf("valid minimal document rejected: %v", err)
	}
}

// TestParseEngine locks the override vocabulary.
func TestParseEngine(t *testing.T) {
	for _, ok := range []string{"", "auto", "node", "edge", "residual", "relax", "pool"} {
		if _, err := ParseEngine(ok); err != nil {
			t.Errorf("ParseEngine(%q): %v", ok, err)
		}
	}
	if _, err := ParseEngine("openmp"); err == nil {
		t.Error("ParseEngine accepted an unknown engine")
	}
}

// TestAdmission exercises the two-stage gate directly: slots fill, the
// waiting line bounds blocking admits, and overflows shed immediately.
func TestAdmission(t *testing.T) {
	a := newAdmission(2, 1)
	if got := a.capacity(); got != 3 {
		t.Fatalf("capacity = %d, want 3", got)
	}
	if !a.admit() || !a.admit() {
		t.Fatal("free slots refused admission")
	}
	if got := a.depth(); got != 2 {
		t.Fatalf("depth = %d, want 2", got)
	}

	// Both slots busy: one waiter may block, so admit from a goroutine.
	waited := make(chan bool, 1)
	go func() { waited <- a.admit() }()
	// The waiter parks in the line; an arrival behind it must shed. Spin
	// until the waiter registers (no timing assumption beyond progress).
	for a.depth() < 3 {
		time.Sleep(time.Millisecond)
	}
	if a.admit() {
		t.Fatal("gate admitted past capacity")
	}
	a.release() // frees the waiter
	if !<-waited {
		t.Fatal("queued admit was shed")
	}
	a.release()
	a.release()
	if got := a.depth(); got != 0 {
		t.Fatalf("depth after drain = %d, want 0", got)
	}
}

// TestLoadFilesSprinkler covers the file-spec load path end to end,
// including the MRF doubling the serving config defaults to.
func TestLoadFilesSprinkler(t *testing.T) {
	s := New(Config{MRF: true})
	r, err := s.LoadFiles("sprinkler", LoadSpec{BIF: sprinklerPath()})
	if err != nil {
		t.Fatal(err)
	}
	if md := r.Metadata(); md.NumNodes != 4 || md.States != 2 {
		t.Fatalf("sprinkler metadata = %+v", md)
	}
	resp, err := s.QueryResident(r, EngineAuto,
		decode(t, r, `{"evidence":[{"node":"wetgrass","state":1}],"nodes":["rain"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Converged {
		t.Fatalf("sprinkler query did not converge (delta %g)", resp.FinalDelta)
	}
	if v, ok := r.names["rain"]; !ok {
		t.Fatal("sprinkler has no node named rain")
	} else if _, ok := resp.Beliefs.Of(v); !ok {
		t.Fatalf("response misses rain posterior: %v", resp.Beliefs)
	}

	if _, err := s.LoadFiles("empty", LoadSpec{}); err == nil {
		t.Fatal("empty LoadSpec accepted")
	}
	if _, err := s.Load("", testGrid(t)); err == nil {
		t.Fatal("empty graph name accepted")
	}
}

// TestOnlyDefault: the single-graph convenience default resolves iff
// exactly one graph is registered.
func TestOnlyDefault(t *testing.T) {
	s, _ := newGridServer(t, Config{})
	if _, ok := s.only(); !ok {
		t.Fatal("single registered graph not returned as default")
	}
	if _, err := s.Load("second", testGrid(t)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.only(); ok {
		t.Fatal("ambiguous default returned with two graphs registered")
	}
	if got := s.Names(); len(got) != 2 || got[0] != "grid" || got[1] != "second" {
		t.Fatalf("Names() = %v", got)
	}
}

var sinkOps int64

// BenchmarkQueryColdVsWarm quantifies the warm-start saving outside the
// pass/fail lock (run with -bench to see the update-count gap).
func BenchmarkQueryColdVsWarm(b *testing.B) {
	g, err := gen.Grid(16, 16, gen.Config{Seed: 5, States: 2, Shared: true, Keep: 0.6})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		s := New(Config{})
		r, _ := s.Load("grid", g.Clone())
		rq, _ := r.DecodeQuery([]byte(`{"evidence":[{"node":"136","state":1}]}`))
		for i := 0; i < b.N; i++ {
			r.InvalidateWarm()
			resp, err := s.QueryResident(r, EngineResidual, rq)
			if err != nil {
				b.Fatal(err)
			}
			sinkOps += resp.Updates
		}
	})
	b.Run("warm", func(b *testing.B) {
		s := New(Config{})
		r, _ := s.Load("grid", g.Clone())
		rq, _ := r.DecodeQuery([]byte(`{"evidence":[{"node":"136","state":1}]}`))
		alt, _ := r.DecodeQuery([]byte(`{"evidence":[{"node":"136","state":1},{"node":"40","state":0}]}`))
		if _, err := s.QueryResident(r, EngineResidual, rq); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			q := rq
			if i%2 == 0 {
				q = alt
			}
			resp, err := s.QueryResident(r, EngineResidual, q)
			if err != nil {
				b.Fatal(err)
			}
			sinkOps += resp.Updates
		}
	})
}
