package cudabp

import (
	"math"
	"runtime"
	"testing"

	"credo/internal/bp"
	"credo/internal/gen"
	"credo/internal/gpusim"
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

func TestCUDAMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name string
		seq  func(*graph.Graph, bp.Options) bp.Result
		cu   func(*graph.Graph, *gpusim.Device, Options) (Result, error)
	}{
		{"edge", bp.RunEdge, RunEdge},
		{"node", bp.RunNode, RunNode},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g1, err := gen.Synthetic(400, 1600, gen.Config{Seed: 17, States: 3})
			if err != nil {
				t.Fatal(err)
			}
			g2 := g1.Clone()
			tc.seq(g1, bp.Options{})
			dev := gpusim.NewDevice(gpusim.Pascal())
			res, err := tc.cu(g2, dev, Options{BlockDim: 64})
			if err != nil {
				t.Fatal(err)
			}
			if d := maxBeliefDiff(g1, g2); d > 1e-3 {
				t.Errorf("CUDA %s beliefs diverge from sequential by %v", tc.name, d)
			}
			if !res.Converged {
				t.Errorf("CUDA %s did not converge: %+v", tc.name, res.Result)
			}
			if res.SimTime <= 0 {
				t.Error("no simulated time accumulated")
			}
		})
	}
}

func TestCUDAWorkQueues(t *testing.T) {
	for _, tc := range []struct {
		name string
		cu   func(*graph.Graph, *gpusim.Device, Options) (Result, error)
	}{{"edge", RunEdge}, {"node", RunNode}} {
		t.Run(tc.name, func(t *testing.T) {
			base, err := gen.Synthetic(600, 2400, gen.Config{Seed: 5, States: 2})
			if err != nil {
				t.Fatal(err)
			}
			g1, g2 := base.Clone(), base.Clone()
			r1, err := tc.cu(g1, gpusim.NewDevice(gpusim.Pascal()), Options{BlockDim: 128})
			if err != nil {
				t.Fatal(err)
			}
			r2, err := tc.cu(g2, gpusim.NewDevice(gpusim.Pascal()), Options{BlockDim: 128, Options: bp.Options{WorkQueue: true}})
			if err != nil {
				t.Fatal(err)
			}
			if d := maxBeliefDiff(g1, g2); d > 5e-3 {
				t.Errorf("queue beliefs diverge by %v", d)
			}
			if r2.Ops.EdgesProcessed >= r1.Ops.EdgesProcessed {
				t.Errorf("queue did not reduce edge work: %d >= %d", r2.Ops.EdgesProcessed, r1.Ops.EdgesProcessed)
			}
		})
	}
}

func TestVRAMExceeded(t *testing.T) {
	// A tiny profile rejects even a small graph, reproducing the paper's
	// TW/OR exclusion mechanism.
	p := gpusim.Pascal()
	p.VRAMBytes = 1024
	g, err := gen.Synthetic(100, 400, gen.Config{Seed: 1, States: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunEdge(g, gpusim.NewDevice(p), Options{}); err == nil {
		t.Error("edge run accepted a graph exceeding VRAM")
	}
	if _, err := RunNode(g, gpusim.NewDevice(p), Options{}); err == nil {
		t.Error("node run accepted a graph exceeding VRAM")
	}
}

func TestDeviceMemoryReleased(t *testing.T) {
	g, err := gen.Synthetic(50, 200, gen.Config{Seed: 2, States: 2})
	if err != nil {
		t.Fatal(err)
	}
	dev := gpusim.NewDevice(gpusim.Pascal())
	if _, err := RunEdge(g, dev, Options{}); err != nil {
		t.Fatal(err)
	}
	if dev.Allocated() != 0 {
		t.Errorf("device still holds %d bytes after run", dev.Allocated())
	}
}

func TestEdgeUsesAtomicsNodeDoesNot(t *testing.T) {
	g, err := gen.Synthetic(200, 800, gen.Config{Seed: 8, States: 2})
	if err != nil {
		t.Fatal(err)
	}
	devE := gpusim.NewDevice(gpusim.Pascal())
	re, err := RunEdge(g.Clone(), devE, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Ops.AtomicOps == 0 || devE.Stats().Atomics == 0 {
		t.Error("edge paradigm recorded no atomics")
	}
	devN := gpusim.NewDevice(gpusim.Pascal())
	rn, err := RunNode(g.Clone(), devN, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rn.Ops.AtomicOps != 0 {
		t.Errorf("node paradigm recorded %d belief atomics", rn.Ops.AtomicOps)
	}
	if rn.Ops.RandomLoads == 0 {
		t.Error("node paradigm recorded no random loads")
	}
}

func TestSharedMatrixUsesConstantMemory(t *testing.T) {
	run := func(shared bool) gpusim.Stats {
		g, err := gen.Synthetic(300, 1200, gen.Config{Seed: 4, States: 4, Shared: shared})
		if err != nil {
			t.Fatal(err)
		}
		dev := gpusim.NewDevice(gpusim.Pascal())
		if _, err := RunEdge(g, dev, Options{Options: bp.Options{MaxIterations: 10}}); err != nil {
			t.Fatal(err)
		}
		return dev.Stats()
	}
	sharedStats := run(true)
	perEdgeStats := run(false)
	if sharedStats.MemoryTime >= perEdgeStats.MemoryTime {
		t.Errorf("constant-memory shared matrix not cheaper: %v >= %v",
			sharedStats.MemoryTime, perEdgeStats.MemoryTime)
	}
}

func TestBatchedConvergenceOverrun(t *testing.T) {
	// With Batch=4 the device may overrun true convergence by up to 3
	// iterations but never more.
	g, err := gen.Synthetic(200, 800, gen.Config{Seed: 12, States: 2})
	if err != nil {
		t.Fatal(err)
	}
	seq := bp.RunEdge(g.Clone(), bp.Options{})
	gc := g.Clone()
	res, err := RunEdge(gc, gpusim.NewDevice(gpusim.Pascal()), Options{Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < seq.Iterations {
		t.Errorf("CUDA converged in fewer iterations (%d) than sequential (%d)", res.Iterations, seq.Iterations)
	}
	if res.Iterations > seq.Iterations+4 {
		t.Errorf("CUDA overran by more than one batch: %d vs %d", res.Iterations, seq.Iterations)
	}
}

func TestOpenACCRunsLongerAndTransfersMore(t *testing.T) {
	g, err := gen.Synthetic(300, 1200, gen.Config{Seed: 3, States: 2})
	if err != nil {
		t.Fatal(err)
	}
	cudaDev := gpusim.NewDevice(gpusim.Pascal())
	cudaRes, err := RunEdge(g.Clone(), cudaDev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	accDev := gpusim.NewDevice(gpusim.Pascal())
	accRes, err := RunOpenACCEdge(g.Clone(), accDev, OpenACCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if accRes.Iterations <= cudaRes.Iterations {
		t.Errorf("OpenACC converged as fast as CUDA: %d vs %d iterations", accRes.Iterations, cudaRes.Iterations)
	}
	if accDev.Stats().BytesToDevice <= cudaDev.Stats().BytesToDevice {
		t.Error("OpenACC default scheduler did not transfer more data")
	}
	if accRes.SimTime <= cudaRes.SimTime {
		t.Errorf("OpenACC not slower than CUDA: %v vs %v", accRes.SimTime, cudaRes.SimTime)
	}
	// Batched transfers recover most of the gap.
	accDev2 := gpusim.NewDevice(gpusim.Pascal())
	accRes2, err := RunOpenACCEdge(g.Clone(), accDev2, OpenACCOptions{BatchTransfers: true})
	if err != nil {
		t.Fatal(err)
	}
	if accRes2.SimTime >= accRes.SimTime {
		t.Error("batched transfers did not reduce OpenACC time")
	}
}

func TestObservedNodesClampedOnDevice(t *testing.T) {
	g, err := gen.Synthetic(100, 400, gen.Config{Seed: 6, States: 3})
	if err != nil {
		t.Fatal(err)
	}
	_ = g.Observe(42, 2)
	for _, run := range []func(*graph.Graph, *gpusim.Device, Options) (Result, error){RunEdge, RunNode} {
		c := g.Clone()
		if _, err := run(c, gpusim.NewDevice(gpusim.Pascal()), Options{}); err != nil {
			t.Fatal(err)
		}
		b := c.Belief(42)
		if b[0] != 0 || b[1] != 0 || b[2] != 1 {
			t.Errorf("observed node drifted to %v", b)
		}
	}
}

func TestTransferDominatesSmallGraphs(t *testing.T) {
	// §4.1.1: for the smallest benchmark, memory management and transfer
	// overhead dwarf compute.
	g, err := gen.Synthetic(10, 40, gen.Config{Seed: 1, States: 2})
	if err != nil {
		t.Fatal(err)
	}
	dev := gpusim.NewDevice(gpusim.Pascal())
	if _, err := RunEdge(g, dev, Options{}); err != nil {
		t.Fatal(err)
	}
	st := dev.Stats()
	overhead := st.InitTime + st.TransferTime + st.LaunchTime
	if frac := overhead / st.Total(); frac < 0.9 {
		t.Errorf("overhead fraction = %.3f, want > 0.9 for a 10-node graph", frac)
	}
}

func TestKernelFusion(t *testing.T) {
	// gpusim commits float atomic adds in goroutine order, so two Edge
	// runs agree bitwise only when Device.Launch runs its blocks in index
	// order — which it does on a single worker.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g, err := gen.Synthetic(300, 1200, gen.Config{Seed: 14, States: 2})
	if err != nil {
		t.Fatal(err)
	}
	g1, g2 := g.Clone(), g.Clone()
	devPlain := gpusim.NewDevice(gpusim.Pascal())
	r1, err := RunEdge(g1, devPlain, Options{})
	if err != nil {
		t.Fatal(err)
	}
	devFused := gpusim.NewDevice(gpusim.Pascal())
	r2, err := RunEdge(g2, devFused, Options{FuseKernels: true})
	if err != nil {
		t.Fatal(err)
	}
	// Functionally identical.
	for i := range g1.Beliefs {
		if math.Float32bits(g1.Beliefs[i]) != math.Float32bits(g2.Beliefs[i]) {
			t.Fatalf("fused belief %d = %v, plain %v", i, g2.Beliefs[i], g1.Beliefs[i])
		}
	}
	if r1.Iterations != r2.Iterations {
		t.Errorf("iterations differ: %d vs %d", r1.Iterations, r2.Iterations)
	}
	// Fewer launches charged.
	if devFused.Stats().LaunchTime >= devPlain.Stats().LaunchTime {
		t.Errorf("fusion did not reduce launch time: %v >= %v",
			devFused.Stats().LaunchTime, devPlain.Stats().LaunchTime)
	}
}

// TestCircularNodeDeterministic pins CUDA Node's determinism under
// Circular BP: thread blocks run concurrently, but the correction state
// is double-buffered per sweep, so each node reads the reverse messages
// committed at the previous launch and two runs must agree bitwise.
func TestCircularNodeDeterministic(t *testing.T) {
	base, err := gen.Synthetic(400, 1600, gen.Config{Seed: 21, States: 3})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{BlockDim: 16, Options: bp.Options{Variant: kernel.VariantCircular}}
	run := func() (*graph.Graph, Result) {
		g := base.Clone()
		res, err := RunNode(g, gpusim.NewDevice(gpusim.Pascal()), opts)
		if err != nil {
			t.Fatal(err)
		}
		return g, res
	}
	a, ra := run()
	b, rb := run()
	if ra.Iterations != rb.Iterations || ra.Converged != rb.Converged {
		t.Fatalf("iterations/converged %d/%v then %d/%v", ra.Iterations, ra.Converged, rb.Iterations, rb.Converged)
	}
	for i := range a.Beliefs {
		if math.Float32bits(a.Beliefs[i]) != math.Float32bits(b.Beliefs[i]) {
			t.Fatalf("belief[%d] %v then %v (not bitwise identical)", i, a.Beliefs[i], b.Beliefs[i])
		}
	}
}
