package bp

import (
	"math/rand"
	"testing"

	"credo/internal/gen"
)

// BenchmarkResidualCold times one cold residual start on a graph of the
// size and shape of servebench's frontier workload: a 196,591-node
// power-law MRF with 1.9M directed edges and one shared coupling, under
// 20 seeded clamps. ResetBeliefs before each run restores every belief to
// its prior (Observe clamped the evidence nodes' priors too), so each
// iteration is a true cold start. The updates, edge folds and wasted pops
// it reports are deterministic, so they compare exactly across commits;
// the file is self-contained so it can be copied into another checkout.
//
//	go test -run '^$' -bench ResidualCold -benchtime 1x -count 5 ./internal/bp
func BenchmarkResidualCold(b *testing.B) {
	g, err := gen.PowerLaw(196591, 950327, gen.Config{Seed: 1, States: 2, Shared: true})
	if err != nil {
		b.Fatal(err)
	}
	if g, err = g.Undirected(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		if err := g.Observe(int32(rng.Intn(g.NumNodes)), rng.Intn(g.States)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var res Result
	for i := 0; i < b.N; i++ {
		g.ResetBeliefs()
		res = RunResidual(g, Options{})
	}
	b.ReportMetric(float64(res.Ops.NodesProcessed), "updates/op")
	b.ReportMetric(float64(res.Ops.EdgesProcessed), "folds/op")
	b.ReportMetric(float64(res.Ops.WastedUpdates), "wasted/op")
}
