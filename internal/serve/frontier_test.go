package serve

import (
	"cmp"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"credo/internal/gen"
)

// frontierShape is a resident of the shape of servebench's frontier
// graph at n nodes — a power-law MRF with about 4.8 directed links per
// node, two states and one shared coupling — warmed under 20 base
// clamps, with the watchlist traffic of that workload: queries are the
// base clamps plus one toggled clamp and answer 16 nodes, updates are an
// evidence arrival plus a prior drift.
type frontierShape struct {
	s       *Server
	r       *Resident
	rng     *rand.Rand
	base    []evPair
	toggles []evPair
	ask     []int32
}

func newFrontierShape(tb testing.TB, n int) *frontierShape {
	tb.Helper()
	g, err := gen.PowerLaw(n, n*950327/196591, gen.Config{Seed: 1, States: 2, Shared: true})
	if err != nil {
		tb.Fatal(err)
	}
	if g, err = g.Undirected(); err != nil {
		tb.Fatal(err)
	}
	f := &frontierShape{s: New(Config{}), rng: rand.New(rand.NewSource(1))}
	if f.r, err = f.s.Load("frontier", g); err != nil {
		tb.Fatal(err)
	}
	perm := f.rng.Perm(n)
	for i, v := range perm[:60] {
		ev := evPair{node: int32(v), state: int32(f.rng.Intn(2))}
		if i < 20 {
			f.base = append(f.base, ev)
		} else {
			f.toggles = append(f.toggles, ev)
		}
	}
	for _, v := range perm[60:76] {
		f.ask = append(f.ask, int32(v))
	}
	slices.Sort(f.ask)
	if resp := f.query(tb, f.base); !resp.Converged {
		tb.Fatalf("cold start on %d nodes did not converge", n)
	}
	return f
}

// toggled returns the base clamps plus toggle i.
func (f *frontierShape) toggled(i int) []evPair {
	return append(slices.Clone(f.base), f.toggles[i%len(f.toggles)])
}

// query answers the watchlist nodes under evidence.
func (f *frontierShape) query(tb testing.TB, evidence []evPair) *Response {
	rq := &ResolvedQuery{evidence: slices.Clone(evidence), nodes: f.ask}
	slices.SortFunc(rq.evidence, func(a, b evPair) int { return cmp.Compare(a.node, b.node) })
	resp, err := f.s.QueryResident(f.r, EngineResidual, rq)
	if err != nil {
		tb.Fatal(err)
	}
	return resp
}

// update draws one evidence arrival plus one prior drift.
func (f *frontierShape) update() *ResolvedUpdate {
	n := f.r.base.NumNodes
	p := []float32{f.rng.Float32() + 0.01, f.rng.Float32() + 0.01}
	return &ResolvedUpdate{muts: []gen.Mutation{
		{Kind: gen.MutEvidence, Node: int32(f.rng.Intn(n)), State: f.rng.Intn(2)},
		{Kind: gen.MutPrior, Node: int32(f.rng.Intn(n)), Prior: p},
	}}
}

func (f *frontierShape) apply(tb testing.TB, ru *ResolvedUpdate) {
	resp, err := f.s.UpdateResident(f.r, ru)
	if err != nil {
		tb.Fatal(err)
	}
	if !resp.Warm {
		tb.Fatal("update dropped the warm snapshot")
	}
}

// BenchmarkResidentFrontier times the resident's warm paths on
// frontier's full graph (196,591 nodes): a watchlist query alternating
// one toggled clamp, and an update of one evidence arrival plus one
// prior drift. Set-up (the graph and one cold start) takes a few
// seconds.
//
//	go test -run '^$' -bench ResidentFrontier -benchtime 400x -benchmem ./internal/serve
func BenchmarkResidentFrontier(b *testing.B) {
	f := newFrontierShape(b, 196591)
	b.Run("query", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.query(b, f.toggled(i))
		}
	})
	b.Run("update", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.apply(b, f.update())
		}
	})
}

// TestWarmAllocsFlat: a warm query, an unchanged repeat and a numeric
// update allocate the same bytes whatever the graph's size. Copying a
// whole belief array — into an overlay or a fresh snapshot — would cost
// N·S·4 bytes each: 16 KB at 2,000 nodes, 400 KB at 50,000.
func TestWarmAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops leased overlays at random; the bytes are asserted in the non-race build")
	}
	const runs, slack = 20, 16 << 10
	ops := []string{"toggle query", "unchanged repeat", "update"}
	var bytes [2][3]float64
	for i, n := range []int{2000, 50000} {
		f := newFrontierShape(t, n)
		k := 0
		bytes[i][0] = bytesPerRun(runs, func() { k++; f.query(t, f.toggled(k)) })
		bytes[i][1] = bytesPerRun(runs, func() { f.query(t, f.base) })
		updates := make([]*ResolvedUpdate, runs+1)
		for j := range updates {
			updates[j] = f.update()
		}
		k = 0
		bytes[i][2] = bytesPerRun(runs, func() { f.apply(t, updates[k]); k++ })
	}
	for j, op := range ops {
		t.Logf("%s: %.0f B at 2,000 nodes, %.0f B at 50,000", op, bytes[0][j], bytes[1][j])
		if d := bytes[1][j] - bytes[0][j]; d > slack || d < -slack {
			t.Errorf("%s allocates %.0f B at 2,000 nodes but %.0f B at 50,000; want within %d B",
				op, bytes[0][j], bytes[1][j], slack)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes
// allocated by f over runs calls, after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
