package ompbp

import (
	"math"
	"sync/atomic"
	"testing"

	"credo/internal/bp"
	"credo/internal/gen"
	"credo/internal/graph"
	"credo/internal/kernel"
)

func maxBeliefDiff(a, b *graph.Graph) float64 {
	var maxd float64
	for i := range a.Beliefs {
		d := math.Abs(float64(a.Beliefs[i] - b.Beliefs[i]))
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

func TestParallelMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name     string
		seq      func(*graph.Graph, bp.Options) bp.Result
		par      func(*graph.Graph, Options) bp.Result
		schedule Schedule
	}{
		{"node-static", bp.RunNode, RunNode, Static},
		{"node-dynamic", bp.RunNode, RunNode, Dynamic},
		{"edge-static", bp.RunEdge, RunEdge, Static},
		{"edge-dynamic", bp.RunEdge, RunEdge, Dynamic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g1, err := gen.Synthetic(400, 1600, gen.Config{Seed: 21, States: 3})
			if err != nil {
				t.Fatal(err)
			}
			g2 := g1.Clone()
			r1 := tc.seq(g1, bp.Options{})
			r2 := tc.par(g2, Options{Threads: 4, Schedule: tc.schedule})
			if d := maxBeliefDiff(g1, g2); d > 1e-3 {
				t.Errorf("parallel beliefs diverge from sequential by %v", d)
			}
			if abs := r1.Iterations - r2.Iterations; abs > 2 && abs < -2 {
				t.Errorf("iteration counts diverge: %d vs %d", r1.Iterations, r2.Iterations)
			}
		})
	}
}

func TestParallelWorkQueue(t *testing.T) {
	g1, err := gen.Synthetic(500, 2000, gen.Config{Seed: 13, States: 2})
	if err != nil {
		t.Fatal(err)
	}
	g2 := g1.Clone()
	r1 := RunNode(g1, Options{Threads: 4})
	r2 := RunNode(g2, Options{Threads: 4, Options: bp.Options{WorkQueue: true}})
	if d := maxBeliefDiff(g1, g2); d > 5e-3 {
		t.Errorf("queue beliefs diverge by %v", d)
	}
	if r2.Ops.NodesProcessed >= r1.Ops.NodesProcessed {
		t.Errorf("queue did not reduce work: %d >= %d", r2.Ops.NodesProcessed, r1.Ops.NodesProcessed)
	}
}

func TestEdgeAtomicsCounted(t *testing.T) {
	g, err := gen.Synthetic(100, 400, gen.Config{Seed: 7, States: 2})
	if err != nil {
		t.Fatal(err)
	}
	res := RunEdge(g, Options{Threads: 4})
	if res.Ops.AtomicOps == 0 {
		t.Error("edge paradigm recorded no atomic operations")
	}
	want := res.Ops.EdgesProcessed * int64(g.States)
	if res.Ops.AtomicOps != want {
		t.Errorf("atomic ops = %d, want %d", res.Ops.AtomicOps, want)
	}
}

func TestObservedNodesClampedParallel(t *testing.T) {
	g, err := gen.Synthetic(80, 320, gen.Config{Seed: 3, States: 3})
	if err != nil {
		t.Fatal(err)
	}
	_ = g.Observe(11, 1)
	for _, run := range []func(*graph.Graph, Options) bp.Result{RunNode, RunEdge} {
		c := g.Clone()
		run(c, Options{Threads: 4})
		b := c.Belief(11)
		if b[0] != 0 || b[1] != 1 || b[2] != 0 {
			t.Errorf("observed node drifted to %v", b)
		}
	}
}

func TestAtomicAddFloat32(t *testing.T) {
	bits := make([]uint32, 1)
	done := make(chan struct{})
	const workers, adds = 8, 1000
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < adds; i++ {
				AtomicAddFloat32(bits, 0, 1)
			}
			done <- struct{}{}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	got := math.Float32frombits(atomic.LoadUint32(&bits[0]))
	if got != workers*adds {
		t.Errorf("atomic adds lost updates: got %v, want %d", got, workers*adds)
	}
}

func TestParallelForSchedules(t *testing.T) {
	for _, sched := range []Schedule{Static, Dynamic} {
		var count atomic.Int64
		seen := make([]atomic.Bool, 1000)
		parallelFor(1000, Options{Threads: 7, ChunkSize: 16, Schedule: sched}.withDefaults(), func(_, i int) {
			count.Add(1)
			if seen[i].Swap(true) {
				t.Errorf("schedule %v visited index %d twice", sched, i)
			}
		})
		if count.Load() != 1000 {
			t.Errorf("schedule %v visited %d indices, want 1000", sched, count.Load())
		}
	}
	// Degenerate cases.
	parallelFor(0, Options{Threads: 4}.withDefaults(), func(_, _ int) { t.Error("body called for n=0") })
	ran := false
	parallelFor(1, Options{Threads: 16}.withDefaults(), func(_, i int) { ran = true })
	if !ran {
		t.Error("n=1 body never ran")
	}
}

func TestThreadCountsProduceSameBeliefs(t *testing.T) {
	base, err := gen.PowerLaw(300, 1500, gen.Config{Seed: 31, States: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref := base.Clone()
	RunNode(ref, Options{Threads: 1})
	for _, threads := range []int{2, 4, 8} {
		g := base.Clone()
		RunNode(g, Options{Threads: threads})
		if d := maxBeliefDiff(ref, g); d > 1e-3 {
			t.Errorf("threads=%d beliefs diverge by %v", threads, d)
		}
	}
}

// TestCircularNodeDeterministicAcrossThreadCounts pins the node
// paradigm's determinism under Circular BP: the correction state is
// double-buffered per sweep, so a node's update reads only the beliefs
// and reverse messages of the previous sweep, and 1 and 4 threads must
// produce bitwise-identical beliefs after the same number of sweeps.
func TestCircularNodeDeterministicAcrossThreadCounts(t *testing.T) {
	base, err := gen.Synthetic(400, 1600, gen.Config{Seed: 21, States: 3})
	if err != nil {
		t.Fatal(err)
	}
	o := bp.Options{Variant: kernel.VariantCircular}
	ref := base.Clone()
	refRes := RunNode(ref, Options{Threads: 1, Options: o})
	g := base.Clone()
	res := RunNode(g, Options{Threads: 4, Options: o})
	if res.Iterations != refRes.Iterations || res.Converged != refRes.Converged {
		t.Fatalf("iterations/converged %d/%v, 1 thread %d/%v",
			res.Iterations, res.Converged, refRes.Iterations, refRes.Converged)
	}
	for i := range ref.Beliefs {
		if math.Float32bits(ref.Beliefs[i]) != math.Float32bits(g.Beliefs[i]) {
			t.Fatalf("belief[%d] %v, 1 thread %v (not bitwise identical)", i, g.Beliefs[i], ref.Beliefs[i])
		}
	}
}
